"""PEARL benchmark: one workload per process, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload parsec_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, fresh processes

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Host times are wall times normalised to machine speed (see
``calib.py``); the report printed above the JSON line gives each one's
raw value, the kernel time and the sample count.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calib import NOMINAL_KERNEL_MS, NOMINAL_ROUND_TRIP_MS, PERIOD_S, Clock

#: Process start, as far as the benchmark can see it.
STARTED = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The seed runs use unless told otherwise, and one kept back from all
#: tuning so that later claims can be checked on unseen inputs.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

WORKLOADS = ("parsec_sweep", "collective_retrain", "serve_hits")

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("sim_cycles_per_s", "cycles/s"),
    ("requests_per_s", "1/s"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("sim_energy_pj_per_bit", "pJ/bit"),
    ("sim_latency_cycles", "cycles"),
    ("sim_throughput_flits_per_cycle", "flits/cycle"),
)

PER_LAYER = (
    ("noc.init_ms", "ms"),
    ("noc.run_ms", "ms"),
    ("noc.run_self_ms", "ms"),
    ("noc.host_us_per_cycle", "us/cycle"),
    ("noc.host_ns_per_flit", "ns/flit"),
    ("noc.cycles", "cycles"),
    ("noc.flits_delivered", "flits"),
    ("noc.backlog_packets", "packets"),
    ("noc.laser_stall_cycles", "cycles"),
    ("noc.retransmissions", "count"),
    ("traffic.build_ms", "ms"),
    ("traffic.events_per_job", "events"),
    ("ml.train_s", "s"),
    ("ml.collect_runs", "count"),
    ("ml.deploy_fit_s", "s"),
    ("ml.model_load_ms", "ms"),
    ("ml.refit_ms", "ms"),
    ("ml.registry_ms", "ms"),
    ("ml.retrain_events", "count"),
    ("ml.registry_lookup_ms", "ms"),
    ("experiments.key_ms", "ms"),
    ("experiments.cache_get_ms", "ms"),
    ("experiments.cache_put_ms", "ms"),
    ("experiments.cache_hit_ratio", "ratio"),
    ("experiments.entry_bytes", "bytes"),
    ("experiments.orchestration_ms", "ms"),
    ("service.start_s", "s"),
    ("service.decode_ms", "ms"),
    ("service.encode_ms", "ms"),
    ("service.transport_ms", "ms"),
    ("service.client_parse_ms", "ms"),
    ("service.response_bytes", "bytes"),
    ("service.request_p99_ms", "ms"),
    ("service.rejected", "count"),
    ("service.errors", "count"),
    ("proc.import_s", "s"),
    ("proc.calib_ms", "ms"),
    ("proc.tracing_overhead", "ratio"),
)

UNVALIDATED = (
    "The PEARL model is unvalidated against hardware or a more detailed "
    "model, so no error figure is given."
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _percentile(values, q: int) -> float:
    """The q-th percentile (Python's exclusive quantile method)."""
    return statistics.quantiles(values, n=100)[q - 1]


def _entry_bytes(store: Path) -> float:
    """Mean on-disk size of one result-cache entry (meta + blob)."""
    files = [path for path in store.rglob("*") if path.is_file()]
    entries = sum(1 for path in files if path.suffix == ".json")
    return sum(path.stat().st_size for path in files) / entries if entries else 0.0


def measure(args, clock: Clock, tmp: Path):
    """Run one workload in this process; return (report lines, result)."""
    sys.path.insert(0, str(SRC))
    import spans
    import workloads
    from repro.noc.stats import NetworkStats
    from repro.power.energy import energy_per_bit_pj

    imported = time.perf_counter()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(spans.CLIENT_TARGETS)
    ctx = workloads.Context(ROOT, tmp, args.workload, args.seed, args.seconds,
                            clock, tracer)
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        clock.stop()

    ops = len(outcome.ops)
    first_op = outcome.ops[0][0]

    def normalised(start: float, end: float) -> float:
        return clock.measure(start, end, outcome.by_round_trips and start >= first_op)[1]

    timed = [clock.measure(start, end, outcome.by_round_trips)
             for start, end in outcome.ops]
    norm_ms = [norm * 1e3 for _, norm in timed]
    raw_ms = [raw * 1e3 for raw, _ in timed]
    host_s = sum(norm for _, norm in timed)
    raw_s = sum(raw for raw, _ in timed)
    setup_raw, setup_s = clock.measure(STARTED, first_op)
    import_s = clock.normalised(STARTED, imported)
    failed = min(ops, max(len(outcome.failed), outcome.extra.get("server_failures", 0)))
    results = [result for result in outcome.results if result is not None]
    merged = NetworkStats.merge([result.stats for result in results])
    cycles = sum(outcome.cycles)
    calib = clock.calib_ms()

    end_to_end = {
        "setup_s": (setup_s, setup_raw),
        "latency_p50_ms": (statistics.median(norm_ms), statistics.median(raw_ms)),
        "latency_p90_ms": (_percentile(norm_ms, 90), _percentile(raw_ms, 90)),
        "sim_cycles_per_s": (cycles / host_s, cycles / raw_s),
        "requests_per_s": (ops / host_s, ops / raw_s),
        "success_rate": ((ops - failed) / ops, None),
        "peak_rss_mb": (outcome.peak_rss_mb, None),
        "sim_energy_pj_per_bit": (energy_per_bit_pj(merged), None),
        "sim_latency_cycles": (merged.mean_latency(), None),
        "sim_throughput_flits_per_cycle": (merged.throughput_flits_per_cycle(), None),
    }
    setup_samples = sum(1 for start, _ in clock.kernel.runs if start < first_op)
    samples = {"setup_s": f"{setup_samples} kernel samples",
               "latency_p50_ms": f"n={ops}", "latency_p90_ms": f"n={ops}"}
    mode = "traced" if tracer else "untraced"
    lines = [
        f"perfbench {args.workload}: seed {args.seed}, {ops} operations, {mode}; "
        f"kernel {calib:.4f} ms median (nominal {NOMINAL_KERNEL_MS}), "
        f"{len(clock.kernel.runs)} samples every {PERIOD_S * 1e3:.0f} ms"
        + (f"; operations normalised by {len(clock.round_trips.runs)} reference round trips, "
           f"{clock.round_trips.median_ms():.4f} ms median (nominal {NOMINAL_ROUND_TRIP_MS})"
           if outcome.by_round_trips else ""),
        f"{'metric':34s} {'value':>14s} {'unit':12s} {'raw':>14s}  samples",
    ]
    for name, unit in END_TO_END:
        value, raw = end_to_end[name]
        raw_text = f"{raw:14.4f}" if raw is not None else f"{'-':>14s}"
        lines.append(f"{name:34s} {value:14.4f} {unit:12s} {raw_text}  "
                     f"{samples.get(name, '')}")
    lines.append(f"proc.calib_ms {calib:.4f} ms (kernel median); "
                 f"proc.import_s {import_s:.4f} s")
    lines.append(f"sim digest {workloads.sim_digest(results)} "
                 f"(sha256 over {len(results)} results: stats, residency, laser power)")
    lines.append(UNVALIDATED)
    lines.extend(outcome.problems[:20])

    if tracer is None:
        metrics = {name: {"value": end_to_end[name][0], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        layer = spans.layer_metrics(tracer.spans, normalised, ops)
        engines = layer.pop("engines")
        traced = [normalised(*pair[0]) for pair in outcome.twins]
        plain = [normalised(*pair[1]) for pair in outcome.twins]
        layer.update({
            "service.start_s": outcome.extra.get("service.start_s", 0.0),
            "service.response_bytes": outcome.extra.get("service.response_bytes", 0.0),
            "service.request_p99_ms": (_percentile(norm_ms, 99)
                                       if args.workload == "serve_hits" else 0.0),
            "service.rejected": outcome.extra.get("service.rejected", 0),
            "service.errors": outcome.extra.get("service.errors", 0),
            "experiments.entry_bytes": _entry_bytes(tmp / "results"),
            "proc.import_s": import_s,
            "proc.calib_ms": calib,
            "proc.tracing_overhead": statistics.median(traced) / statistics.median(plain),
        })
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
        lines.append(f"engines used: {engines or 'none (no simulation in timed operations)'}; "
                     f"tracing overhead over {len(traced)} paired operations; "
                     f"{len(tracer.spans)} spans")
        lines.append(f"{'layer metric':34s} {'value':>14s} unit")
        lines.extend(f"{name:34s} {layer[name]:14.4f} {unit}" for name, unit in PER_LAYER)
        out = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps([span.to_dict() for span in tracer.spans]))
        lines.append(f"spans written to {out.relative_to(ROOT)}")
    result = {"correct": not outcome.problems,
              "attempted": ops, "failed": failed, "metrics": metrics}
    return lines, result


def run_all(args) -> int:
    """Every workload in its own process; then one summary table."""
    results = {}
    for workload in WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, capture_output=True, text=True)
        output = completed.stdout.strip().splitlines()
        print("\n".join(output[:-1]), flush=True)
        if completed.returncode != 0 or not output:
            print(completed.stderr, file=sys.stderr)
            return completed.returncode or 1
        results[workload] = json.loads(output[-1])
    names = [name for name, _ in (PER_LAYER if args.trace else END_TO_END)]
    print(f"\n{'metric':34s}" + "".join(f"{w:>20s}" for w in WORKLOADS))
    for name in names:
        print(f"{name:34s}" + "".join(
            f"{results[w]['metrics'][name]['value']:20.4f}" for w in WORKLOADS))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": value for w, r in results.items()
                    for name, value in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    needed = (SRC / "repro" / "__init__.py", ROOT / "examples" / "faults.yaml")
    missing = [str(path.relative_to(ROOT)) for path in needed if not path.is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not a PEARL checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench"))
    # Caches, registry and temporary files all live in the run's own
    # directory inside the checkout, and go when the run ends.
    os.environ.update(
        PEARL_REGISTRY_DIR=str(tmp / "registry"),
        PEARL_RESULT_CACHE_DIR=str(tmp / "results"),
        PEARL_CACHE_DIR=str(tmp / "cache"),
        TMPDIR=str(tmp),
        PYTHONPATH=str(SRC),
    )
    os.environ.pop("PEARL_RESULT_CACHE_BACKEND", None)
    tempfile.tempdir = str(tmp)
    # One CPU for the benchmark and the server it starts: request
    # hand-offs become context switches instead of cross-CPU wake-ups
    # from idle, and the calibration kernel runs where the work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        lines, result = measure(args, Clock(), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    code = main()
    print(f"perfbench: {time.perf_counter() - STARTED:.1f} s wall", file=sys.stderr)
    sys.exit(code)
