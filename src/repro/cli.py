"""Command-line interface: ``pearl-sim``.

Subcommands:

* ``list`` — show the registered experiments;
* ``experiment <id>`` — regenerate one paper figure/table;
* ``all`` — regenerate every experiment as one batch (prints the
  EXPERIMENTS.md report; ``--output`` writes it);
* ``simulate`` — run one benchmark pair under a chosen configuration;
* ``model train|list|show|promote|eval`` — manage the versioned model
  registry (see ``docs/ml_lifecycle.md``);
* ``obs report <id>`` — run one experiment instrumented and print its
  telemetry summary (``--json`` for machine-readable output);
* ``sweep`` — run a policy × pair × seed sweep through the sharded,
  resumable manifest service (``--resume`` continues a killed run;
  see ``docs/sweep_service.md``);
* ``serve`` — the async simulation server with request coalescing;
* ``cache stats|prune`` — manage the shared result cache.

``experiment``, ``all`` and ``simulate`` accept ``--trace PATH`` to run
under telemetry and export the JSONL + Chrome ``trace_event`` artifacts
(see ``docs/observability.md``), and ``--profile PATH`` to wrap the run
in ``cProfile`` and write a ``.pstats`` file (see
``docs/performance.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from typing import List, Optional

from .config import SIGNALING_MODES, PearlConfig, SimulationConfig
from .noc.router import PowerPolicyKind
from .traffic.benchmarks import CPU_BENCHMARKS, GPU_BENCHMARKS

#: ``--policy``/``--policies`` values: every policy but the collection-only
#: ``random``.
_POLICY_CHOICES = [
    kind.value for kind in PowerPolicyKind if kind is not PowerPolicyKind.RANDOM
]


def _workload(text: str) -> str:
    """Validate a ``--workload`` value at argument-parse time.

    Accepts ``pair`` (the default CPU+GPU benchmark pair) or
    ``collective:<algorithm>``; unknown collective algorithms are
    rejected here, before any simulation starts.
    """
    if text == "pair":
        return text
    if text.startswith("collective:"):
        from .traffic.collectives import validate_collective

        try:
            validate_collective(text.split(":", 1)[1])
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        return text
    raise argparse.ArgumentTypeError(
        f"unknown workload {text!r}; use 'pair' or 'collective:<algorithm>'"
    )


def _build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="pearl-sim",
        description="PEARL photonic-NoC reproduction (HPCA 2018)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    exp = sub.add_parser("experiment", help="run one experiment")
    exp.add_argument("id", help="experiment id (see `pearl-sim list`)")
    exp.add_argument("--full", action="store_true", help="all 16 test pairs")
    exp.add_argument("--seed", type=int, default=1)
    exp.add_argument(
        "--chart",
        action="store_true",
        help="render the figure as a terminal chart too",
    )
    _add_engine_args(exp)
    _add_trace_args(exp)

    allp = sub.add_parser("all", help="run every experiment as one batch")
    allp.add_argument("--full", action="store_true")
    allp.add_argument("--seed", type=int, default=1)
    allp.add_argument("--output", default=None, help="write report to a file")
    _add_engine_args(allp)
    _add_trace_args(allp)

    obsp = sub.add_parser("obs", help="telemetry commands")
    obs_sub = obsp.add_subparsers(dest="obs_command", required=True)
    rep = obs_sub.add_parser(
        "report",
        help="run one experiment instrumented and print its telemetry",
    )
    rep.add_argument("id", help="experiment id (see `pearl-sim list`)")
    rep.add_argument("--full", action="store_true", help="all 16 test pairs")
    rep.add_argument("--seed", type=int, default=1)
    rep.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    rep.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the simulation fan-out (default 1)",
    )
    _add_trace_args(rep)

    ser = obs_sub.add_parser(
        "series",
        help="summarize a window-series artifact (<stem>.series.npz)",
    )
    ser.add_argument(
        "path",
        help="series artifact or trace stem (any artifact spelling works)",
    )
    ser.add_argument(
        "--json", action="store_true", help="machine-readable summary"
    )

    simp = sub.add_parser(
        "simulate", help="run one benchmark pair or collective workload"
    )
    simp.add_argument("--cpu", default="fluidanimate", choices=sorted(CPU_BENCHMARKS))
    simp.add_argument("--gpu", default="dct", choices=sorted(GPU_BENCHMARKS))
    simp.add_argument(
        "--policy",
        default="static",
        choices=_POLICY_CHOICES,
        help="power-scaling policy (docs/policies.md)",
    )
    _add_run_args(simp)
    simp.add_argument("--static-state", type=int, default=64)
    simp.add_argument("--fcfs", action="store_true", help="disable DBA")
    simp.add_argument("--seed", type=int, default=1)
    simp.add_argument(
        "--faults",
        default=None,
        metavar="PATH",
        help="fault schedule (YAML or JSON, see docs/resilience.md); "
        "an empty schedule is bit-identical to running without one",
    )
    simp.add_argument(
        "--quantization",
        default=None,
        metavar="QM.N",
        help="run the ML predictor in fixed point (e.g. q4.12); "
        "default: full float64",
    )
    simp.add_argument(
        "--drift-action",
        default=None,
        choices=["flag", "fallback", "retrain"],
        help="what the ml policy does when drift fires (default: config "
        "default; 'retrain' refits online and hot-swaps via the registry)",
    )
    _add_trace_args(simp)

    swp = sub.add_parser(
        "sweep",
        help="run a sharded, resumable sweep (docs/sweep_service.md)",
        description="Run a sharded, resumable sweep.  Every job's result "
        "goes through the shared result cache, the channel between "
        "shards, so a sweep cannot run without it.",
    )
    swp.add_argument(
        "--policies",
        nargs="+",
        default=["static", "reactive"],
        choices=_POLICY_CHOICES,
        help="power-scaling policies to cross (default: static reactive)",
    )
    swp.add_argument(
        "--full",
        action="store_true",
        help="all 16 test pairs (default: the quick 4-pair set)",
    )
    swp.add_argument(
        "--seeds",
        nargs="+",
        type=int,
        default=[1],
        help="simulation seeds to cross (default: 1)",
    )
    _add_run_args(swp)
    swp.add_argument(
        "--shard-size",
        type=int,
        default=8,
        metavar="K",
        help="jobs per manifest shard (default 8)",
    )
    swp.add_argument(
        "--manifest-dir",
        default=".pearl_sweep",
        metavar="DIR",
        help="where the resumable manifest lives (default .pearl_sweep)",
    )
    swp.add_argument(
        "--resume",
        action="store_true",
        help="continue from the manifest: done shards are never re-run",
    )
    swp.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    _add_pool_args(swp)
    _add_trace_args(swp)

    srv = sub.add_parser(
        "serve",
        help="async simulation server with request coalescing "
        "(docs/sweep_service.md)",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port",
        type=int,
        default=8639,
        help="listen port (0 picks a free one; default 8639)",
    )
    srv.add_argument(
        "--jobs",
        type=int,
        default=2,
        metavar="N",
        help="simulation worker processes (default 2)",
    )
    srv.add_argument(
        "--max-pending",
        type=int,
        default=64,
        metavar="N",
        help="distinct in-flight specs before 503 backpressure "
        "(default 64; coalesced duplicates are always accepted)",
    )
    _add_cache_backend_arg(srv)

    cachep = sub.add_parser(
        "cache", help="shared result-cache management"
    )
    cache_sub = cachep.add_subparsers(dest="cache_command", required=True)
    cstats = cache_sub.add_parser("stats", help="entry count and size")
    _add_cache_backend_arg(cstats)
    cstats.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    cprune = cache_sub.add_parser(
        "prune", help="evict entries by age and/or size budget"
    )
    _add_cache_backend_arg(cprune)
    cprune.add_argument(
        "--max-gb",
        type=float,
        default=None,
        metavar="X",
        help="evict oldest-first until the store fits X GiB",
    )
    cprune.add_argument(
        "--older-than",
        default=None,
        metavar="AGE",
        help="drop entries older than AGE (e.g. 90s, 12h, 7d)",
    )

    modelp = sub.add_parser(
        "model", help="model registry commands (docs/ml_lifecycle.md)"
    )
    model_sub = modelp.add_subparsers(dest="model_command", required=True)

    mtrain = model_sub.add_parser(
        "train", help="train the default model and register it"
    )
    mtrain.add_argument("--window", type=int, default=500)
    mtrain.add_argument(
        "--quick",
        action="store_true",
        help="shrunken pair set and run length (CI/tests)",
    )
    mtrain.add_argument("--seed", type=int, default=2018)
    mtrain.add_argument(
        "--promote",
        default="production",
        metavar="TAG",
        help="tag to point at the trained model (default: production)",
    )
    mtrain.add_argument(
        "--no-promote",
        action="store_true",
        help="register the version without retargeting any tag",
    )

    model_sub.add_parser("list", help="list registered model versions")

    mshow = model_sub.add_parser("show", help="print one version's record")
    mshow.add_argument("ref", help="tag, model id or unique id prefix")

    mpromote = model_sub.add_parser(
        "promote", help="point a tag at a model version"
    )
    mpromote.add_argument("ref", help="tag, model id or unique id prefix")
    mpromote.add_argument(
        "--tag", default="production", help="tag to retarget (default: production)"
    )

    meval = model_sub.add_parser(
        "eval",
        help="score a registered model's fixed-point deployment fidelity",
    )
    meval.add_argument(
        "ref",
        nargs="?",
        default="production",
        help="tag, model id or unique id prefix (default: production)",
    )
    meval.add_argument(
        "--quantization",
        default="q4.12",
        metavar="QM.N",
        help="fixed-point format to evaluate (default: q4.12)",
    )
    meval.add_argument(
        "--max-nrmse",
        type=float,
        default=None,
        metavar="X",
        help="exit non-zero when the quantized-vs-float NRMSE exceeds X",
    )
    meval.add_argument("--seed", type=int, default=1)
    meval.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    return parser


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    """The run flags ``simulate`` and ``sweep`` share (see ``_run_config``)."""
    parser.add_argument(
        "--workload",
        type=_workload,
        default="pair",
        metavar="SPEC",
        help="'pair' (CPU+GPU benchmark pairs, default) or "
        "'collective:<algorithm>' (docs/workloads.md)",
    )
    parser.add_argument(
        "--signaling",
        default="nrz",
        choices=SIGNALING_MODES,
        help="link modulation format: NRZ (default) or PAM4 "
        "(2 bits/symbol at a BER-driven laser/receiver penalty)",
    )
    parser.add_argument("--window", type=int, default=500)
    parser.add_argument("--cycles", type=int, default=20_000)
    parser.add_argument("--warmup", type=int, default=1_000)
    parser.add_argument(
        "--model",
        default=None,
        metavar="REF",
        help="registry tag/id of the model the ml policy deploys "
        "(default: train/fetch the default model)",
    )


def _add_pool_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the simulation fan-out (default 1)",
    )
    _add_cache_backend_arg(parser)


def _cache_backend(text: str) -> str:
    """Validate a ``--cache-backend`` value at argument-parse time.

    Only the value is checked: nothing is opened or created, so a
    malformed value is a usage error before any work starts.
    """
    from .experiments.service.stores import parse_store_spec

    try:
        parse_store_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return text


def _check_backend_env(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Reject a malformed ``$PEARL_RESULT_CACHE_BACKEND`` as a usage error.

    Checked as ``--cache-backend`` is: before any work, opening nothing.
    """
    value = os.environ.get("PEARL_RESULT_CACHE_BACKEND", "")
    # Commands without the flag open no store; the flag overrides it.
    if not value or getattr(args, "cache_backend", value) is not None:
        return
    from .experiments.service.stores import parse_store_spec

    try:
        parse_store_spec(value)
    except ValueError as exc:
        parser.exit(
            2, f"{parser.prog}: error: PEARL_RESULT_CACHE_BACKEND: {exc}\n"
        )


def _add_cache_backend_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-backend",
        type=_cache_backend,
        default=None,
        metavar="URL",
        help="result store: dir:PATH or sqlite:PATH "
        "(default: the local .pearl_result_cache directory)",
    )


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    _add_pool_args(parser)
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the on-disk result cache (.pearl_result_cache/)",
    )


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="run instrumented and export <PATH>.jsonl + <PATH>.trace.json",
    )
    parser.add_argument(
        "--sample-every",
        type=int,
        default=1,
        metavar="N",
        help="keep every Nth trace event per event name (default 1: all)",
    )
    parser.add_argument(
        "--series-every",
        type=int,
        default=1,
        metavar="N",
        help=(
            "record every Nth window close per router into "
            "<PATH>.series.npz (default 1: all; 0 disables the series)"
        ),
    )
    parser.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="wrap the run in cProfile and write PATH (a .pstats file)",
    )


def _engine_scope(args: argparse.Namespace):
    from .experiments.parallel import engine_scope

    if args.jobs < 1:
        raise SystemExit("--jobs must be at least 1")
    # A traced run executes its jobs, as `obs report` does: a cache hit
    # carries telemetry only if the run that wrote it was traced.
    return engine_scope(
        jobs=args.jobs,
        use_cache=not (args.no_cache or getattr(args, "trace", None)),
        backend=getattr(args, "cache_backend", None),
    )


@contextmanager
def _profile_scope(args: argparse.Namespace):
    """Profile a command under ``cProfile`` when ``--profile PATH`` was given.

    The stats file is written on clean completion and can be inspected
    with ``python -m pstats PATH`` or snakeviz (see
    ``docs/performance.md``).
    """
    path = getattr(args, "profile", None)
    if not path:
        yield
        return
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        profiler.dump_stats(path)
        print(f"wrote {path}", file=sys.stderr)


def _observed_session(args: argparse.Namespace):
    """The telemetry session of ``--sample-every``/``--series-every``."""
    from . import obs

    if args.sample_every < 1:
        raise SystemExit("--sample-every must be at least 1")
    if args.series_every < 0:
        raise SystemExit("--series-every must be >= 0 (0 disables)")
    return obs.session(
        sample_every=args.sample_every, series_every=args.series_every
    )


def _write_artifacts(stem: str, provenance: dict) -> None:
    """Export the session's JSONL, Chrome trace and (if on) series."""
    from . import obs

    jsonl_path, chrome_path = obs.write_trace_artifacts(
        stem, obs.OBS.registry, obs.OBS.tracer, provenance
    )
    written = f"wrote {jsonl_path} and {chrome_path}"
    if obs.OBS.series.enabled:
        npz_path = obs.write_series(stem, obs.OBS.series, provenance)
        written = f"wrote {jsonl_path}, {chrome_path} and {npz_path}"
    print(written, file=sys.stderr)


@contextmanager
def _telemetry_scope(args: argparse.Namespace):
    """Enable telemetry for a command when ``--trace PATH`` was given.

    On clean completion the JSONL and Chrome trace artifacts are
    written next to each other under the requested stem.
    """
    trace = getattr(args, "trace", None)
    if not trace:
        yield
        return
    from . import obs

    with _observed_session(args):
        yield
        extra: dict = {}
        if obs.OBS.engines:
            extra["engines_used"] = dict(obs.OBS.engines)
        provenance = obs.collect_provenance(
            seed=getattr(args, "seed", None),
            command=args.command,
            sample_every=args.sample_every,
            series_every=args.series_every,
            **extra,
        )
        _write_artifacts(trace, provenance)


def _cmd_list() -> int:
    from .experiments import REGISTRY

    for name in REGISTRY:
        print(name)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import REGISTRY, run_experiment

    if args.id not in REGISTRY:
        print(f"unknown experiment {args.id!r}; try `pearl-sim list`")
        return 2
    with _engine_scope(args):
        result = run_experiment(args.id, quick=not args.full, seed=args.seed)
    print(result.format_table())
    if getattr(args, "chart", False):
        from .viz import RENDERERS

        renderer = RENDERERS.get(args.id)
        if renderer is None:
            print(f"(no chart renderer for {args.id})")
        else:
            print()
            print(renderer(result))
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    from .experiments import run_all
    from .experiments.report import render_markdown

    quick = not args.full
    with _engine_scope(args):
        report = render_markdown(run_all(quick=quick, seed=args.seed), quick)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report)
        print(f"wrote {args.output}")
    else:
        print(report, end="")
    return 0


def _run_config(args: argparse.Namespace) -> PearlConfig:
    """The configuration ``simulate`` and ``sweep`` jobs run under.

    The run's seed travels on the job spec, as in a sweep, so the
    config is the same for every ``--seed``.
    """
    import dataclasses

    config = PearlConfig(
        simulation=SimulationConfig(
            warmup_cycles=args.warmup, measure_cycles=args.cycles
        )
    ).with_reservation_window(args.window)
    if args.signaling != "nrz":
        config = config.replace(
            photonic=dataclasses.replace(
                config.photonic, signaling=args.signaling
            )
        )
    return config


def _ml_model_path(args: argparse.Namespace) -> str:
    """The ``.npz`` an ml job deploys: ``--model REF`` or the default model."""
    if args.model:
        from .ml.lifecycle import default_registry

        # One resolution: a tag costs one read of tags.json.
        try:
            return str(default_registry().model_path(args.model))
        except KeyError as exc:
            raise SystemExit(f"--model {args.model}: {exc}")
    from .ml.pipeline import ensure_model_file

    print("preparing default ML model...", file=sys.stderr)
    return str(ensure_model_file(args.window, quick=True))


def _trace_specs(args: argparse.Namespace, pairs, seeds):
    """The traces ``simulate`` and ``sweep`` jobs run, in stable order.

    ``--workload collective:<algorithm>`` gives that schedule per seed;
    otherwise each benchmark pair of ``pairs`` is run per seed.
    """
    from .experiments.parallel import collective_spec, pair_spec

    if args.workload.startswith("collective:"):
        algorithm = args.workload.split(":", 1)[1]
        return [collective_spec(algorithm, seed) for seed in seeds]
    return [pair_spec(pair, seed) for pair in pairs for seed in seeds]


def _cmd_simulate(args: argparse.Namespace) -> int:
    import dataclasses

    from .experiments.parallel import ExperimentEngine, pearl_job

    faults = None
    if args.faults:
        from .faults import load_fault_schedule

        try:
            faults = load_fault_schedule(args.faults)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"--faults {args.faults}: {exc}")
    policy = PowerPolicyKind(args.policy)
    pair = (CPU_BENCHMARKS[args.cpu], GPU_BENCHMARKS[args.gpu])
    (trace,) = _trace_specs(args, [pair], [args.seed])
    if trace.kind == "collective":
        workload_name = args.workload
    else:
        workload_name = f"{args.cpu}+{args.gpu}"
    try:
        config = _run_config(args)
        ml = config.ml
        if args.quantization:
            ml = dataclasses.replace(ml, quantization=args.quantization)
        if args.drift_action:
            ml = dataclasses.replace(ml, drift_action=args.drift_action)
        config = config.replace(ml=ml)
        spec = pearl_job(
            config,
            trace,
            seed=args.seed,
            power_policy=policy,
            use_dynamic_bandwidth=not args.fcfs,
            static_state=(
                args.static_state if policy is PowerPolicyKind.STATIC else None
            ),
            faults=faults,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    if policy is PowerPolicyKind.ML:
        spec = dataclasses.replace(spec, ml_model_path=_ml_model_path(args))
    # The one job runs as every other job does, uncached: its events
    # merge into a traced run under the ``job0`` stream.
    (result,) = ExperimentEngine(jobs=1).run([spec])
    print(
        f"workload: {workload_name} policy={args.policy} "
        f"window={args.window} signaling={args.signaling}"
    )
    for key, value in result.stats.summary().items():
        print(f"  {key}: {value:.4g}")
    print(
        "  residency:",
        {s: round(f, 3) for s, f in result.state_residency.items()},
    )
    if faults is not None and not faults.is_empty:
        stats = result.stats
        print(
            "  faults: crc_errors=%d retransmissions=%d packets_dropped=%d "
            "clamp_events=%d"
            % (
                stats.crc_errors,
                stats.retransmissions,
                stats.packets_dropped,
                stats.fault_clamp_events,
            )
        )
    if policy is PowerPolicyKind.ML:
        print(
            "  ml: quantization=%s drift_events=%d fallback_windows=%d "
            "retraining_recommended=%s"
            % (
                spec.config.ml.quantization or "float64",
                result.drift_events,
                result.fallback_windows,
                result.drift_retraining_recommended,
            )
        )
        if result.retrain_events:
            print(
                "  ml: retrain_events=%d models=%s"
                % (result.retrain_events, ",".join(result.retrained_model_ids))
            )
    return 0


def _sweep_specs(args: argparse.Namespace):
    """The sweep's JobSpecs: policies × workloads × seeds, in stable order."""
    from .experiments.parallel import pearl_job
    from .experiments.runner import experiment_pairs

    config = _run_config(args)
    model_path = _ml_model_path(args) if "ml" in args.policies else None
    traces = _trace_specs(
        args, experiment_pairs(quick=not args.full), args.seeds
    )
    specs = []
    for policy in args.policies:
        for trace in traces:
            specs.append(
                pearl_job(
                    config,
                    trace,
                    seed=trace.seed,
                    power_policy=PowerPolicyKind(policy),
                    ml_model_path=(model_path if policy == "ml" else None),
                )
            )
    return specs


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments.cache import ResultCache
    from .experiments.service import SweepRunner

    if args.jobs < 1:
        raise SystemExit("--jobs must be at least 1")
    if args.shard_size < 1:
        raise SystemExit("--shard-size must be at least 1")
    specs = _sweep_specs(args)
    cache = ResultCache(store=args.cache_backend)
    runner = SweepRunner(cache, jobs=args.jobs, shard_size=args.shard_size)
    try:
        results, report = runner.run(
            specs, args.manifest_dir, resume=args.resume
        )
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc))
    doc = report.to_dict()
    if args.json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(
            f"sweep {report.sweep_id[:12]} ({'resumed' if report.resumed else 'cold'}): "
            f"{report.shards_executed} shards executed, "
            f"{report.shards_skipped} skipped, "
            f"{report.shards_failed} failed "
            f"({report.jobs_executed}/{report.jobs_total} jobs ran, "
            f"{report.cache_hits} cache hits) "
            f"in {report.wall_seconds:.2f}s"
        )
        print(f"  manifest: {report.manifest_path}")
        print(f"  cache: {cache.store.backend}:{cache.store.location()}")
        for shard_id, error in report.failures.items():
            print(f"  FAILED {shard_id[:12]}: {error}")
    return 1 if report.shards_failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .experiments.cache import ResultCache
    from .experiments.service.server import SweepServer

    if args.jobs < 1:
        raise SystemExit("--jobs must be at least 1")
    if args.max_pending < 1:
        raise SystemExit("--max-pending must be at least 1")
    cache = ResultCache(store=args.cache_backend)
    server = SweepServer(
        cache=cache,
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        max_pending=args.max_pending,
    )

    async def _serve() -> None:
        # SIGINT and SIGTERM both end the serve through stop(), which
        # waits for the pool workers.  Installing the handlers also
        # replaces a SIGINT disposition inherited as ignored, as in a
        # background job of a non-interactive shell.
        stopping = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stopping.set)
        await server.start()
        print(
            f"pearl-sim serve on http://{server.host}:{server.port} "
            f"(jobs={server.jobs}, max_pending={server.max_pending}, "
            f"cache={cache.store.backend}:{cache.store.location()})",
            flush=True,
        )
        try:
            await stopping.wait()
            print("shutting down", file=sys.stderr, flush=True)
        finally:
            await server.stop()

    asyncio.run(_serve())
    return 0


def _parse_age(text: str) -> float:
    """``90s`` / ``15m`` / ``12h`` / ``7d`` (bare numbers = seconds)."""
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    scale = units.get(text[-1:].lower())
    digits = text[:-1] if scale else text
    if scale is None:
        scale = 1.0
    try:
        value = float(digits)
    except ValueError:
        raise SystemExit(
            f"--older-than {text!r}: expected e.g. 90s, 15m, 12h or 7d"
        )
    if value < 0:
        raise SystemExit("--older-than must be non-negative")
    return value * scale


def _cmd_cache(args: argparse.Namespace) -> int:
    from .experiments.cache import ResultCache

    cache = ResultCache(store=args.cache_backend)
    if args.cache_command == "stats":
        stats = cache.stats()
        if args.json:
            print(json.dumps(stats.to_dict(), sort_keys=True, indent=2))
        else:
            print(f"backend:  {stats.backend}")
            print(f"location: {stats.location}")
            print(f"entries:  {stats.entries}")
            print(f"size:     {stats.total_bytes / (1 << 20):.2f} MiB")
        return 0
    if args.cache_command == "prune":
        if args.max_gb is None and args.older_than is None:
            raise SystemExit("prune needs --max-gb and/or --older-than")
        max_bytes = (
            int(args.max_gb * (1 << 30)) if args.max_gb is not None else None
        )
        older_than = (
            _parse_age(args.older_than)
            if args.older_than is not None
            else None
        )
        removed, removed_bytes = cache.prune(
            max_bytes=max_bytes, older_than=older_than
        )
        print(
            f"pruned {removed} entries "
            f"({removed_bytes / (1 << 20):.2f} MiB)"
        )
        return 0
    return 2


def _cmd_model(args: argparse.Namespace) -> int:
    from .ml.lifecycle import default_registry

    registry = default_registry()
    if args.model_command == "train":
        return _cmd_model_train(args, registry)
    if args.model_command == "list":
        records = registry.list()
        if not records:
            print(f"(registry at {registry.root} is empty)")
            return 0
        print(f"{'MODEL ID':<18} {'CREATED':<26} {'NRMSE':>7}  KEY / TAGS")
        for record in records:
            key = record.training.get("key") or {}
            # Refit models registered by online retraining have none.
            nrmse = record.metrics.get("validation_nrmse")
            nrmse = "-" if nrmse is None else format(nrmse, ".3f")
            # Each record's own training-key fields: the default
            # pipeline's window/quick/seed, a refit's origin, cycle,
            # window, samples and event.
            if isinstance(key, dict):
                key_str = (
                    " ".join(f"{name}={key[name]}" for name in sorted(key))
                    or "-"
                )
            else:
                key_str = str(key)
            tags = f" [{', '.join(record.tags)}]" if record.tags else ""
            print(
                f"{record.model_id:<18} {record.created:<26} "
                f"{nrmse:>7}  "
                f"{key_str}{tags}"
            )
        return 0
    if args.model_command == "show":
        try:
            record = registry.record(args.ref)
        except KeyError as exc:
            raise SystemExit(str(exc))
        doc = {
            "model_id": record.model_id,
            "created": record.created,
            "tags": record.tags,
            "schema_hash": record.schema_hash,
            "feature_schema": record.feature_schema,
            "training": record.training,
            "metrics": record.metrics,
            "provenance": record.provenance,
            "path": str(registry.model_path(record.model_id)),
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
        return 0
    if args.model_command == "promote":
        try:
            record = registry.promote(args.ref, tag=args.tag)
        except KeyError as exc:
            raise SystemExit(str(exc))
        print(f"{args.tag} -> {record.model_id}")
        return 0
    if args.model_command == "eval":
        return _cmd_model_eval(args, registry)
    return 2


def _cmd_model_train(args: argparse.Namespace, registry) -> int:
    from .ml.lifecycle.registry import feature_schema, schema_hash
    from .ml.pipeline import _training_key, train_default_model

    result = train_default_model(
        reservation_window=args.window, quick=args.quick, seed=args.seed
    )
    key = _training_key(args.window, args.quick, args.seed)
    record = registry.find_by_key(key, with_schema_hash=schema_hash())
    assert record is not None  # train_default_model just registered it
    if not args.no_promote and args.promote != "production":
        # train_default_model promoted "production"; honour the override.
        registry.promote(record.model_id, tag=args.promote)
    print(f"registered model {record.model_id}")
    print(f"  registry: {registry.root}")
    print(f"  validation NRMSE: {result.validation_nrmse:.3f}")
    print(f"  lambda: {result.lam}")
    print(
        f"  samples: phase1={result.phase1_samples} "
        f"phase2={result.phase2_samples}"
    )
    if not args.no_promote:
        print(f"  promoted: {args.promote}")
    return 0


def _cmd_model_eval(args: argparse.Namespace, registry) -> int:
    import numpy as np

    from .config import PearlConfig
    from .ml.lifecycle.quantized import QuantizedRidge, quantization_nrmse
    from .ml.pipeline import _quick_config, collect_pair_dataset
    from .power.ml_overhead import MLHardwareModel
    from .traffic.benchmarks import training_pairs

    try:
        record = registry.record(args.ref)
        model = registry.get(args.ref)
    except KeyError as exc:
        raise SystemExit(str(exc))
    try:
        quantized = QuantizedRidge.from_spec(model, args.quantization)
    except ValueError as exc:
        raise SystemExit(f"--quantization {args.quantization}: {exc}")

    # Score on deployment-like features: one quick random-state
    # collection run (the phase-1 distribution).
    window = record.training.get("key", {}).get("reservation_window", 500)
    config = _quick_config(
        PearlConfig().with_reservation_window(int(window))
    )
    dataset = collect_pair_dataset(
        training_pairs()[0], config, seed=args.seed
    )
    X, _ = dataset.arrays()
    nrmse = quantization_nrmse(model, quantized, X)
    hardware = MLHardwareModel().for_bit_width(
        quantized.weight_format.total_bits
    )
    doc = {
        "model_id": record.model_id,
        "quantization": quantized.describe(),
        "samples": int(X.shape[0]),
        "quantized_vs_float_nrmse": nrmse,
        "prediction_spread": float(np.std(model.predict(X))),
        "inference_energy_pj": hardware.inference_energy_pj(),
        "mean_power_uw": hardware.mean_power_uw(int(window)),
    }
    if args.json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(f"model {record.model_id} under {args.quantization}:")
        print(f"  samples: {doc['samples']}")
        print(f"  quantized-vs-float NRMSE: {nrmse:.6f}")
        print(f"  inference energy: {doc['inference_energy_pj']:.1f} pJ")
        print(f"  amortised power: {doc['mean_power_uw']:.1f} uW")
    if args.max_nrmse is not None and nrmse > args.max_nrmse:
        print(
            f"FAIL: NRMSE {nrmse:.6f} exceeds bound {args.max_nrmse}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from . import obs
    from .experiments import REGISTRY, run_experiment

    if args.id not in REGISTRY:
        print(f"unknown experiment {args.id!r}; try `pearl-sim list`")
        return 2
    if args.jobs < 1:
        raise SystemExit("--jobs must be at least 1")
    from .experiments.parallel import engine_scope

    with _observed_session(args):
        # Cache off: the report must describe a live instrumented run,
        # not whatever telemetry an earlier cache entry happened to hold.
        with engine_scope(jobs=args.jobs, use_cache=False):
            run_experiment(args.id, quick=not args.full, seed=args.seed)
        provenance = obs.collect_provenance(
            seed=args.seed,
            experiment=args.id,
            quick=not args.full,
            sample_every=args.sample_every,
            series_every=args.series_every,
            engines_used=dict(obs.OBS.engines),
        )
        if args.trace:
            _write_artifacts(args.trace, provenance)
        if args.json:
            doc = obs.report_doc(
                obs.OBS.registry,
                obs.OBS.tracer,
                provenance,
                series=obs.OBS.series,
                engines=obs.OBS.engines,
            )
            print(json.dumps(doc, sort_keys=True, indent=2))
        else:
            print(
                obs.render_report(
                    obs.OBS.registry,
                    obs.OBS.tracer,
                    provenance,
                    series=obs.OBS.series,
                    engines=obs.OBS.engines,
                )
            )
    return 0


def _cmd_obs_series(args: argparse.Namespace) -> int:
    from . import obs

    path = obs.series_path(args.path)
    if not path.exists():
        print(f"no series artifact at {path}", file=sys.stderr)
        return 2
    try:
        arrays = obs.load_series(path)
    except ValueError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return 2
    doc = obs.series_summary(arrays)
    if args.json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(obs.render_series_report(doc))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    _check_backend_env(parser, args)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "experiment":
            with _profile_scope(args), _telemetry_scope(args):
                return _cmd_experiment(args)
        if args.command == "all":
            with _profile_scope(args), _telemetry_scope(args):
                return _cmd_all(args)
        if args.command == "simulate":
            with _profile_scope(args), _telemetry_scope(args):
                return _cmd_simulate(args)
        if args.command == "sweep":
            with _profile_scope(args), _telemetry_scope(args):
                return _cmd_sweep(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "model":
            return _cmd_model(args)
        if args.command == "obs":
            if args.obs_command == "report":
                with _profile_scope(args):
                    return _cmd_obs_report(args)
            if args.obs_command == "series":
                return _cmd_obs_series(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
