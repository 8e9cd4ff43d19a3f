#!/usr/bin/env python3
"""Benchmark the array engine against the reference engine.

Runs a small workload matrix under the reference cycle-by-cycle engine
(the test oracle) and the struct-of-arrays array engine (the default
every production path runs), verifies the two are bit-identical on
the test oracle's whole-run fingerprint (``tests/oracle.py``), and
writes ``BENCH_<label>.json`` with per-engine wall time, simulated
cycles/second, the array-over-reference speedup and ``trace_s``, the
best-of-N wall time of building the row's trace.  The matrix has two
parts: three synthetic traces (idle-heavy, mixed, saturated) under
static and reactive scaling at the default 500-cycle window, and rows
at the PEARL benchmark's production job shapes (``perfbench/``: window
100, PARSEC jobs of 200+1,000 cycles, collective jobs of 100+1,200):
one Table IV pair under all five adaptation policies, the same pair
under reactive scaling with ``examples/faults.yaml`` for 500+2,000
cycles, the ML collective row with online retraining, and the other
three collectives under reactive scaling with NRZ and with PAM4
signaling, built from the same ``pearl_job``/``pair_spec``/
``collective_spec`` helpers.  Each production row also records
``close_share``, the share of an array run's wall time spent in the
window close (:meth:`ArrayCore._close_boundary`), from one extra run
with that method wrapped by a timer after the timed passes, which stay
bare (``null`` on the synthetic rows).

Usage::

    PYTHONPATH=src python scripts/bench.py --label $(git rev-parse --short HEAD)
    PYTHONPATH=src python scripts/bench.py --quick --check   # CI gate
    PYTHONPATH=src python scripts/bench.py --sweep --check \
        --label sweep-service                # sweep-service resume gate

``--sweep`` benchmarks the sharded sweep service instead of the cycle
engines: one cold sweep (fresh manifest + empty cache) against a
resumed re-run of the identical sweep on both cache backends.  The
resumed run must re-execute zero jobs, return bit-identical results and
beat the cold run by ``--min-resume-speedup`` (default 5x).

``--check`` exits non-zero when the engines diverge on any row, or when
the array engine's speedup over the reference drops below
``--min-array-speedup`` (default 1.3) on any row, or below
``IDLE_SPEEDUP_FLOOR`` (2x) on the ``idle_heavy`` rows, where skipping
quiescent spans is the array core's whole advantage.  The committed
full-run ``BENCH_*.json`` files are the performance trajectory of
record (the array core clears 2x on every row there); the gate is a
deliberately conservative 1.3 so shared-runner timing noise cannot
flake the build while order-of-magnitude regressions still fail it.
See ``docs/performance.md`` for how to read the output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from repro.config import PearlConfig, SimulationConfig  # noqa: E402
from repro.experiments.collective_study import DRIFT_KNOBS  # noqa: E402
from repro.experiments.parallel import (  # noqa: E402
    collective_spec,
    pair_spec,
    pearl_job,
    pearl_network,
)
from repro.faults.schedule import load_fault_schedule  # noqa: E402
from repro.ml import pipeline  # noqa: E402
from repro.ml.ridge import RidgeRegression  # noqa: E402
from repro.noc.array_core import ArrayCore  # noqa: E402
from repro.noc.network import PearlNetwork  # noqa: E402
from repro.noc.packet import CoreType  # noqa: E402
from repro.noc.router import PowerPolicyKind  # noqa: E402
from repro.traffic.benchmarks import (  # noqa: E402
    CPU_BENCHMARKS,
    GPU_BENCHMARKS,
    test_pairs,
)
from repro.traffic.synthetic import (  # noqa: E402
    generate_pair_trace,
    uniform_random_trace,
)
from tests.oracle import fingerprint, keep_delivery_order  # noqa: E402

ENGINES = ("reference", "array")

#: ``--check``'s floor on the ``idle_heavy`` rows' array speedup: the
#: array core jumps over quiescent spans (measured 40x and more), so
#: falling to 2x means the idle skip broke.
IDLE_SPEEDUP_FLOOR = 2.0

POLICIES = {
    "static": PowerPolicyKind.STATIC,
    "reactive": PowerPolicyKind.REACTIVE,
}


def _workloads(quick: bool):
    """(name, config, trace builder) triples of the benchmark matrix.

    * ``idle_heavy`` — traffic only in the first ~5% of the run, the
      array core's idle skipping at its best (long quiescent spans);
    * ``mixed`` — a benchmark-pair trace over the full run;
    * ``saturated`` — high-rate uniform random over the full run, where
      quiescence never holds and only the per-cycle work counts.
    """
    scale = 1 if quick else 4
    idle_cfg = PearlConfig().replace(
        simulation=SimulationConfig(
            warmup_cycles=2_000, measure_cycles=20_000 * scale
        )
    )
    mixed_cfg = PearlConfig().replace(
        simulation=SimulationConfig(
            warmup_cycles=1_000, measure_cycles=8_000 * scale
        )
    )
    sat_cfg = mixed_cfg
    return (
        (
            "idle_heavy",
            idle_cfg,
            functools.partial(
                uniform_random_trace,
                CoreType.CPU,
                rate=0.02,
                architecture=idle_cfg.architecture,
                duration=2_000,
                seed=5,
            ),
        ),
        (
            "mixed",
            mixed_cfg,
            functools.partial(
                generate_pair_trace,
                CPU_BENCHMARKS["fluidanimate"],
                GPU_BENCHMARKS["dct"],
                mixed_cfg.architecture,
                mixed_cfg.simulation.total_cycles,
                seed=7,
            ),
        ),
        (
            "saturated",
            sat_cfg,
            functools.partial(
                uniform_random_trace,
                CoreType.GPU,
                rate=0.40,
                architecture=sat_cfg.architecture,
                duration=sat_cfg.simulation.total_cycles,
                seed=5,
            ),
        ),
    )


#: The PEARL benchmark's job shapes (perfbench/workloads.py).
WINDOW = 100
PARSEC_CYCLES = (200, 1_000)
COLLECTIVE_CYCLES = (100, 1_200)
#: The faulted row runs past the start of examples/faults.yaml's bit
#: errors (cycle 1,000) and chip-wide wavelength loss (cycle 2,000).
FAULTED_CYCLES = (500, 2_000)
FAULTS_FILE = Path(__file__).resolve().parent.parent / "examples" / "faults.yaml"


def _production_config(cycles, signaling="nrz", retrain=False) -> PearlConfig:
    warmup, measure = cycles
    config = PearlConfig(
        simulation=SimulationConfig(warmup_cycles=warmup, measure_cycles=measure)
    ).with_reservation_window(WINDOW)
    if signaling != "nrz":
        config = config.replace(
            photonic=dataclasses.replace(config.photonic, signaling=signaling)
        )
    if retrain:
        # collective_study's tight drift settings make the ML collective
        # row drift, refit and hot-swap its model mid-run.
        config = config.replace(
            ml=dataclasses.replace(
                config.ml, drift_action="retrain", **DRIFT_KNOBS
            )
        )
    return config


def _production_specs(model_path: str):
    """(workload, policy, spec) rows at the benchmark's job shapes.

    One Table IV pair under each adaptation policy, the same pair under
    reactive scaling with the example fault schedule, the ML
    collective row with online retraining, and the other three
    collectives under reactive scaling with each signaling.
    """
    pair = test_pairs()[0]
    parsec = _production_config(PARSEC_CYCLES)
    for policy in (
        PowerPolicyKind.STATIC,
        PowerPolicyKind.REACTIVE,
        PowerPolicyKind.ML,
        PowerPolicyKind.PROTEUS,
        PowerPolicyKind.D3NOC,
    ):
        yield "parsec_pair", policy.value, pearl_job(
            parsec,
            pair_spec(pair, 3),
            seed=3,
            power_policy=policy,
            ml_model_path=(
                model_path if policy is PowerPolicyKind.ML else None
            ),
        )
    yield "parsec_pair_faulted", "reactive", pearl_job(
        _production_config(FAULTED_CYCLES),
        pair_spec(pair, 3),
        seed=3,
        power_policy=PowerPolicyKind.REACTIVE,
        faults=load_fault_schedule(FAULTS_FILE),
    )
    yield "allreduce_ring_pam4", "ml_retrain", pearl_job(
        _production_config(COLLECTIVE_CYCLES, "pam4", retrain=True),
        collective_spec("allreduce_ring", 3),
        seed=3,
        power_policy=PowerPolicyKind.ML,
        ml_model_path=model_path,
    )
    for algorithm in ("halving_doubling", "alltoall", "parameter_server"):
        for signaling in ("nrz", "pam4"):
            yield f"{algorithm}_{signaling}", "reactive", pearl_job(
                _production_config(COLLECTIVE_CYCLES, signaling),
                collective_spec(algorithm, 3),
                seed=3,
                power_policy=PowerPolicyKind.REACTIVE,
            )


def _rows(quick: bool, model_dir: str):
    """(workload, policy, network factory, trace builder, cycles,
    production) per row; ``production`` marks the rows at the
    benchmark's job shapes."""
    for workload, config, build in _workloads(quick):
        for policy_name, policy in POLICIES.items():
            make = functools.partial(
                PearlNetwork, config=config, power_policy=policy, seed=3
            )
            yield workload, policy_name, make, build, (
                config.simulation.total_cycles
            ), False
    model_path = str(Path(model_dir) / "deployment.npz")
    pipeline.deployment_fitted_model(
        config=PearlConfig().with_reservation_window(WINDOW)
    ).save(model_path)
    model = RidgeRegression.load(model_path)
    for workload, policy_name, spec in _production_specs(model_path):
        make = functools.partial(
            pearl_network, spec, model if spec.ml_model_path else None
        )
        build = functools.partial(spec.trace.build, spec.config)
        yield workload, policy_name, make, build, (
            spec.config.simulation.total_cycles
        ), True


def run_matrix(quick: bool, repeats: int) -> dict:
    """Time every workload/policy/engine combination (best-of-N).

    Online retraining registers models, so the run points
    ``PEARL_REGISTRY_DIR`` at a temporary directory it removes after.
    """
    entries = {}
    saved = os.environ.get("PEARL_REGISTRY_DIR")
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["PEARL_REGISTRY_DIR"] = str(Path(tmp) / "registry")
        try:
            for row in _rows(quick, tmp):
                _time_row(entries, *row, repeats=repeats)
        finally:
            if saved is None:
                os.environ.pop("PEARL_REGISTRY_DIR", None)
            else:
                os.environ["PEARL_REGISTRY_DIR"] = saved
    return entries


def _close_share(make, trace) -> float:
    """The share of an array run's wall time spent closing windows.

    One extra run with :meth:`ArrayCore._close_boundary` wrapped by a
    timer: the time inside it over the run's wall time.  The timed
    passes stay bare.
    """
    close = ArrayCore._close_boundary
    spent = 0.0

    def timed_close(core, cycle):
        nonlocal spent
        start = time.perf_counter()
        close(core, cycle)
        spent += time.perf_counter() - start

    network = make()
    ArrayCore._close_boundary = timed_close
    try:
        start = time.perf_counter()
        network.run(trace, engine="array")
        wall = time.perf_counter() - start
    finally:
        ArrayCore._close_boundary = close
    return spent / wall


def _time_row(
    entries, workload, policy_name, make, build, cycles, production, repeats
):
    trace_s = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        trace = build()
        trace_s = min(trace_s, time.perf_counter() - start)
    # Interleave the engines inside each repeat (best-of-N) so
    # machine-load drift hits both variants equally.
    walls = {engine: float("inf") for engine in ENGINES}
    outputs = {}
    for _ in range(repeats):
        for engine in ENGINES:
            network = keep_delivery_order(make())
            start = time.perf_counter()
            result = network.run(trace, engine=engine)
            wall = time.perf_counter() - start
            walls[engine] = min(walls[engine], wall)
            outputs[engine] = fingerprint(network, result)
    identical = outputs["array"] == outputs["reference"]
    close_share = _close_share(make, trace) if production else None
    entry = entries[f"{workload}/{policy_name}"] = {
        "workload": workload,
        "policy": policy_name,
        "cycles": cycles,
        "identical": identical,
        "array_speedup": walls["reference"] / walls["array"],
        "trace_s": trace_s,
        "close_share": close_share,
        **{
            engine: {
                "wall_s": walls[engine],
                "cycles_per_s": cycles / walls[engine],
            }
            for engine in ENGINES
        },
    }
    close = "" if close_share is None else f"close={close_share:.1%} "
    print(
        f"{workload:22s} {policy_name:10s} "
        f"trace={trace_s * 1e3:.1f}ms "
        f"ref={walls['reference']:.3f}s "
        f"array={walls['array']:.3f}s "
        f"x{entry['array_speedup']:.2f} "
        f"{close}"
        f"identical={identical}",
        flush=True,
    )


def check(entries: dict, min_array_speedup: float):
    """The CI gate: bit-identity and the speed floor, on every row."""
    failures = []
    for name, entry in entries.items():
        if not entry["identical"]:
            failures.append(f"{name}: engines diverged")
        floor = min_array_speedup
        if entry["workload"] == "idle_heavy":
            floor = max(floor, IDLE_SPEEDUP_FLOOR)
        if entry["array_speedup"] < floor:
            failures.append(
                f"{name}: array speedup {entry['array_speedup']:.2f} < "
                f"required {floor:.2f}"
            )
    return failures


# ---------------------------------------------------------------------------
# Sweep-service benchmark (cold vs resumed)
# ---------------------------------------------------------------------------


def _sweep_specs(quick: bool):
    from repro.experiments.parallel import pair_spec, pearl_job
    from repro.experiments.runner import experiment_pairs

    scale = 1 if quick else 4
    config = PearlConfig().replace(
        simulation=SimulationConfig(
            warmup_cycles=500, measure_cycles=4_000 * scale
        )
    )
    specs = []
    for policy in (PowerPolicyKind.STATIC, PowerPolicyKind.REACTIVE):
        for pair in experiment_pairs(quick=True):
            specs.append(
                pearl_job(
                    config,
                    pair_spec(pair, 3),
                    seed=3,
                    power_policy=policy,
                )
            )
    return specs


def _sweep_fingerprints(results):
    return [
        None if r is None else r.stats.to_dict() for r in results
    ]


def run_sweep_matrix(quick: bool) -> dict:
    """Cold-vs-resumed wall time of one sweep, per cache backend."""
    import tempfile

    from repro.experiments.cache import ResultCache
    from repro.experiments.service import SweepRunner
    from repro.experiments.service.stores import LocalDirStore, SqliteStore

    specs = _sweep_specs(quick)
    entries = {}
    for backend in ("dir", "sqlite"):
        with tempfile.TemporaryDirectory() as tmp:
            tmp_path = Path(tmp)
            if backend == "sqlite":
                store = SqliteStore(tmp_path / "cache.db")
            else:
                store = LocalDirStore(tmp_path / "cache")
            manifest_dir = tmp_path / "sweep"

            cold_runner = SweepRunner(
                ResultCache(store=store), jobs=1, shard_size=4
            )
            start = time.perf_counter()
            cold_results, cold_report = cold_runner.run(specs, manifest_dir)
            cold_wall = time.perf_counter() - start

            resumed_runner = SweepRunner(
                ResultCache(store=store), jobs=1, shard_size=4
            )
            start = time.perf_counter()
            warm_results, warm_report = resumed_runner.run(
                specs, manifest_dir, resume=True
            )
            warm_wall = time.perf_counter() - start

        identical = _sweep_fingerprints(cold_results) == _sweep_fingerprints(
            warm_results
        )
        entries[f"sweep_resume/{backend}"] = {
            "workload": "sweep_resume",
            "backend": backend,
            "jobs_total": cold_report.jobs_total,
            "cold": {
                "wall_s": cold_wall,
                "jobs_executed": cold_report.jobs_executed,
                "shards_executed": cold_report.shards_executed,
            },
            "resumed": {
                "wall_s": warm_wall,
                "jobs_executed": warm_report.jobs_executed,
                "shards_skipped": warm_report.shards_skipped,
            },
            "identical": identical,
            "resume_speedup": cold_wall / warm_wall,
        }
        entry = entries[f"sweep_resume/{backend}"]
        print(
            f"sweep_resume {backend:7s} cold={cold_wall:.3f}s "
            f"resumed={warm_wall:.3f}s "
            f"x{entry['resume_speedup']:.1f} "
            f"re-executed={warm_report.jobs_executed} "
            f"identical={identical}",
            flush=True,
        )
    return entries


def check_sweep(entries: dict, min_resume_speedup: float):
    """Gate: bit-identity, zero re-execution, and the resume speedup."""
    failures = []
    for name, entry in entries.items():
        if not entry["identical"]:
            failures.append(f"{name}: resumed results diverged from cold")
        if entry["resumed"]["jobs_executed"] != 0:
            failures.append(
                f"{name}: resumed sweep re-executed "
                f"{entry['resumed']['jobs_executed']} jobs (expected 0)"
            )
        if entry["resume_speedup"] < min_resume_speedup:
            failures.append(
                f"{name}: resume speedup {entry['resume_speedup']:.1f} < "
                f"required {min_resume_speedup:.1f}"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--label", default="local", help="suffix of BENCH_<label>.json"
    )
    parser.add_argument(
        "--out", default=".", metavar="DIR", help="output directory"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repetitions (best-of)"
    )
    parser.add_argument(
        "--quick", action="store_true", help="short runs (the CI matrix)"
    )
    parser.add_argument(
        "--sweep",
        action="store_true",
        help="benchmark the sweep service (cold vs resumed) instead of "
        "the cycle engines",
    )
    parser.add_argument(
        "--min-resume-speedup",
        type=float,
        default=5.0,
        help="resumed-vs-cold floor for --sweep --check (default 5x)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero on divergence or speed-gate failure",
    )
    parser.add_argument(
        "--min-array-speedup",
        type=float,
        default=1.3,
        help="array-vs-reference floor on every row; kept below the "
        ">2x shown in the committed full-run BENCH jsons so CI timing "
        "noise cannot flake the gate",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    if args.sweep:
        entries = run_sweep_matrix(quick=args.quick)
    else:
        entries = run_matrix(quick=args.quick, repeats=args.repeats)
    doc = {
        "label": args.label,
        "quick": args.quick,
        "repeats": args.repeats,
        "workloads": entries,
    }
    out_path = Path(args.out) / f"BENCH_{args.label}.json"
    out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")

    if args.check:
        if args.sweep:
            failures = check_sweep(entries, args.min_resume_speedup)
        else:
            failures = check(entries, args.min_array_speedup)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("all benchmark gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
