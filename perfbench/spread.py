"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload parsec_sweep --seeds 1-10

Runs ``run.py`` once per seed, each in a fresh process with tracing
off, then prints for every end-to-end metric its median, the distance
between the first and third quartile (``statistics.quantiles(n=4)``)
as a share of the median, the min-max range, and the metric's bound
from BENCHMARK.json.  A spread at or above a third of its bound is
flagged.  The values are also written to
``.perfbench/spread-<workload>.json`` for comparing two sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {metric["name"]: [] for metric in spec["end_to_end"]}
    for seed in args.seeds:
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(completed.stdout, completed.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("\n".join(lines[:-1]), file=sys.stderr)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{name}={result['metrics'][name]['value']:.4g}" for name in values),
            flush=True)
    print(f"\n{args.workload}: {len(args.seeds)} seeds, {seconds} s runs")
    print(f"{'metric':34s} {'median':>14s} {'IQR/med':>9s} {'range/med':>10s} "
          f"{'min':>12s} {'max':>12s} {'bound':>6s}")
    steady = True
    for metric in spec["end_to_end"]:
        data = values[metric["name"]]
        median = statistics.median(data)
        q1, _, q3 = statistics.quantiles(data, n=4)
        spread = (q3 - q1) / median
        flag = ""
        if spread >= metric["bound"] / 3:
            flag = "  <- spread >= bound/3"
            steady = steady and metric["name"] == "setup_s"
        print(f"{metric['name']:34s} {median:14.4f} {spread:9.4f} "
              f"{(max(data) - min(data)) / median:10.4f} {min(data):12.4f} "
              f"{max(data):12.4f} {metric['bound']:6.2f}{flag}")
    out = ROOT / ".perfbench" / f"spread-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seeds": args.seeds, "values": values}, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
