"""Parallel experiment engine.

Every figure/table sweep is expressed as a list of picklable
:class:`JobSpec` values — one per (benchmark pair × network config ×
seed) simulation — and submitted through :func:`run_jobs`.  The engine
fans jobs out over a :class:`concurrent.futures.ProcessPoolExecutor`
(``jobs > 1``) or runs them inline (``jobs = 1``); both paths execute
the identical :func:`execute_job` worker, so a serial run and a
parallel run of the same specs are bit-for-bit identical:

* every job derives its RNG streams only from the seeds in its spec —
  no RNG state is shared across workers;
* ML jobs load their fitted model from an ``.npz`` file written by the
  parent (see :func:`repro.ml.pipeline.ensure_model_file`), a lossless
  binary round trip;
* results come back in submission order regardless of completion
  order.

A :class:`~.cache.ResultCache` can back the engine, in which case
completed jobs are persisted and a re-run (or a resumed interrupted
sweep) only simulates the jobs it has not seen before.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..config import PearlConfig
from ..config_io import to_doc
from ..faults import FaultSchedule
from ..noc.network import JobResult
from ..noc.packet import CoreType
from ..noc.router import PowerPolicyKind
from ..obs import OBS
from ..traffic.benchmarks import BenchmarkProfile, get_benchmark
from ..traffic.collectives import generate_collective_trace, validate_collective
from ..traffic.synthetic import generate_pair_trace, uniform_random_trace
from ..traffic.trace import Trace
from .cache import ResultCache, file_digest
from .service.spec_codec import result_from_bytes

Pair = Tuple[BenchmarkProfile, BenchmarkProfile]


# ---------------------------------------------------------------------------
# Job specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceSpec:
    """How a worker regenerates its injection trace.

    Traces are rebuilt inside the worker from (benchmark names, rate,
    seed) instead of being pickled across: generation is deterministic
    and cheap relative to simulation, and the spec stays hashable for
    the result cache.
    """

    kind: str = "pair"  # "pair" | "uniform" | "collective"
    cpu: Optional[str] = None
    gpu: Optional[str] = None
    rate: float = 0.0
    seed: int = 1
    #: Collective algorithm name (``kind == "collective"`` only).
    algorithm: Optional[str] = None

    def __post_init__(self) -> None:
        # Reject what would otherwise only fail in ``build`` inside a
        # pool worker, so a malformed served spec is a 400 at decode.
        if self.kind == "collective":
            if self.algorithm is None:
                raise ValueError("collective trace specs need an algorithm")
            validate_collective(self.algorithm)
        elif self.kind == "pair":
            for name, core_type in (
                (self.cpu, CoreType.CPU),
                (self.gpu, CoreType.GPU),
            ):
                if name is None:
                    raise ValueError("pair trace specs need cpu and gpu")
                try:
                    profile = get_benchmark(name)
                except KeyError as exc:
                    raise ValueError(exc.args[0]) from None
                if profile.core_type is not core_type:
                    raise ValueError(
                        f"{name!r} is not a {core_type.value} benchmark"
                    )
        elif self.kind == "uniform":
            if not 0.0 <= self.rate <= 1.0:
                raise ValueError(
                    f"uniform trace rate must be in [0, 1], got {self.rate!r}"
                )
        else:
            raise ValueError(
                f"unknown trace kind {self.kind!r} "
                "(choose from pair, uniform, collective)"
            )

    def build(self, config: PearlConfig) -> Trace:
        """Regenerate the trace for ``config``'s run length."""
        duration = config.simulation.total_cycles
        if self.kind == "pair":
            return generate_pair_trace(
                get_benchmark(self.cpu),
                get_benchmark(self.gpu),
                config.architecture,
                duration,
                self.seed,
            )
        if self.kind == "uniform":
            cpu = uniform_random_trace(
                CoreType.CPU,
                rate=self.rate,
                architecture=config.architecture,
                duration=duration,
                seed=self.seed,
            )
            gpu = uniform_random_trace(
                CoreType.GPU,
                rate=self.rate,
                architecture=config.architecture,
                duration=duration,
                seed=self.seed + 1,
            )
            return Trace.merge([cpu, gpu], name=f"uniform-{self.rate}")
        if self.kind == "collective":
            return generate_collective_trace(
                self.algorithm,
                config.architecture,
                duration=duration,
                seed=self.seed,
            )
        raise ValueError(f"unknown trace kind {self.kind!r}")


#: Job kinds; every one regenerates an injection trace.
_JOB_KINDS = ("pearl", "cmesh", "mwsr", "trace")

_POLICY_VALUES = frozenset(kind.value for kind in PowerPolicyKind)


@dataclass(frozen=True)
class JobSpec:
    """One picklable simulation job.

    ``kind`` selects the worker path: ``"pearl"`` (the PEARL network in
    any variant), ``"cmesh"`` (electrical baseline), ``"mwsr"``
    (token-arbitrated crossbar) or ``"trace"`` (trace-level statistics,
    no simulation).
    """

    kind: str
    config: PearlConfig
    trace: Optional[TraceSpec] = None
    seed: int = 1
    # -- pearl variant knobs --
    power_policy: str = "static"
    use_dynamic_bandwidth: bool = True
    static_state: Optional[int] = None
    ml_model_path: Optional[str] = None
    #: Fault schedule applied to pearl jobs (frozen, picklable).  An
    #: empty schedule runs bit-identically to none, so it is stored as
    #: ``None`` and both share one cache key.
    faults: Optional[FaultSchedule] = None
    # -- cmesh --
    bandwidth_divisor: Optional[int] = None

    def __post_init__(self) -> None:
        # Reject what would otherwise only fail inside a pool worker, so
        # a malformed served spec is a 400 at decode, never a job error.
        if self.kind not in _JOB_KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r} (choose from {_JOB_KINDS})"
            )
        if self.trace is None:
            raise ValueError(f"{self.kind} job specs need a trace")
        if self.power_policy not in _POLICY_VALUES:
            raise ValueError(
                f"unknown power policy {self.power_policy!r} "
                f"(choose from {sorted(_POLICY_VALUES)})"
            )
        if self.static_state is not None:
            states = self.config.photonic.wavelength_states
            if self.static_state not in states:
                raise ValueError(
                    f"unknown static wavelength state {self.static_state!r} "
                    f"(choose from {states})"
                )
        if self.bandwidth_divisor is not None and self.bandwidth_divisor < 1:
            raise ValueError("bandwidth_divisor must be positive")
        if self.faults is not None and self.faults.is_empty:
            object.__setattr__(self, "faults", None)

    def payload(self) -> Dict[str, object]:
        """Content payload the result cache hashes.

        Every field in its :func:`~repro.config_io.to_doc` form, except
        that an ML job's model is keyed by a digest of the model file's
        bytes instead of its path, so a retrained model invalidates its
        entries even at the same path.
        """
        data = to_doc(self, skip=("ml_model_path",))
        data["ml_model"] = (
            file_digest(self.ml_model_path) if self.ml_model_path else None
        )
        return data


# -- convenience constructors ------------------------------------------------


def pair_spec(pair: Pair, seed: int) -> TraceSpec:
    """Trace spec for one benchmark pair."""
    cpu, gpu = pair
    return TraceSpec(kind="pair", cpu=cpu.name, gpu=gpu.name, seed=seed)


def uniform_spec(rate: float, seed: int) -> TraceSpec:
    """Trace spec for a uniform-random CPU+GPU load point."""
    return TraceSpec(kind="uniform", rate=rate, seed=seed)


def collective_spec(algorithm: str, seed: int) -> TraceSpec:
    """Trace spec for one collective-communication schedule."""
    return TraceSpec(kind="collective", algorithm=algorithm, seed=seed)


def pearl_job(
    config: PearlConfig,
    trace: TraceSpec,
    seed: int = 1,
    power_policy: PowerPolicyKind = PowerPolicyKind.STATIC,
    use_dynamic_bandwidth: bool = True,
    static_state: Optional[int] = None,
    ml_model_path: Union[str, "os.PathLike[str]", None] = None,
    faults: Optional[FaultSchedule] = None,
) -> JobSpec:
    """A PEARL-variant simulation job."""
    return JobSpec(
        kind="pearl",
        config=config,
        trace=trace,
        seed=seed,
        power_policy=power_policy.value,
        use_dynamic_bandwidth=use_dynamic_bandwidth,
        static_state=static_state,
        ml_model_path=str(ml_model_path) if ml_model_path else None,
        faults=faults,
    )


def cmesh_job(
    config: PearlConfig,
    trace: TraceSpec,
    seed: int = 1,
    bandwidth_divisor: Optional[int] = None,
) -> JobSpec:
    """An electrical CMESH baseline job."""
    return JobSpec(
        kind="cmesh",
        config=config,
        trace=trace,
        seed=seed,
        bandwidth_divisor=bandwidth_divisor,
    )


def mwsr_job(config: PearlConfig, trace: TraceSpec, seed: int = 1) -> JobSpec:
    """A token-arbitrated MWSR crossbar job."""
    return JobSpec(kind="mwsr", config=config, trace=trace, seed=seed)


def trace_job(config: PearlConfig, trace: TraceSpec, seed: int = 1) -> JobSpec:
    """A trace-statistics job (no network simulation)."""
    return JobSpec(kind="trace", config=config, trace=trace, seed=seed)


# ---------------------------------------------------------------------------
# Worker
# ---------------------------------------------------------------------------


def _init_worker_obs(config: Dict[str, object]) -> None:
    """Process-pool initializer: mirror the parent's telemetry session."""
    obs.apply_config(config)


def execute_job(spec: JobSpec) -> JobResult:
    """Run one job to completion (top-level so executors can pickle it).

    This single function is the code path for *both* serial and
    parallel execution; determinism follows from every RNG being
    seeded from the spec alone.

    With telemetry enabled the job runs inside an isolated
    :func:`repro.obs.capture` — identical for inline and worker
    execution — and ships its snapshot back on ``JobResult.telemetry``
    for an order-independent merge in the parent.
    """
    if not OBS.enabled:
        return _dispatch_job(spec)
    with obs.capture() as cap:
        start = time.perf_counter()
        result = _dispatch_job(spec)
        cap.registry.histogram(
            "engine/job_seconds",
            help="wall time of one simulation job",
            volatile=True,
        ).observe(time.perf_counter() - start)
        cap.registry.counter(f"engine/jobs/{spec.kind}").inc()
    result.telemetry = cap.take()
    return result


def _dispatch_job(spec: JobSpec) -> JobResult:
    if spec.kind == "pearl":
        return _run_pearl_job(spec)
    if spec.kind == "cmesh":
        return _run_cmesh_job(spec)
    if spec.kind == "mwsr":
        return _run_mwsr_job(spec)
    if spec.kind == "trace":
        return _run_trace_job(spec)
    raise ValueError(f"unknown job kind {spec.kind!r}")


def pearl_network(spec: JobSpec, ml_model=None):
    """The :class:`~repro.noc.network.PearlNetwork` a pearl job runs.

    ``ml_model`` is the model loaded from ``spec.ml_model_path`` (the
    caller loads it, so a benchmark can load it once).
    """
    from ..noc.network import PearlNetwork

    return PearlNetwork(
        spec.config,
        power_policy=PowerPolicyKind(spec.power_policy),
        use_dynamic_bandwidth=spec.use_dynamic_bandwidth,
        static_state=spec.static_state,
        ml_model=ml_model,
        seed=spec.seed,
        faults=spec.faults,
    )


def _run_pearl_job(spec: JobSpec) -> JobResult:
    from ..ml.ridge import RidgeRegression

    ml_model = None
    if spec.ml_model_path is not None:
        ml_model = RidgeRegression.load(spec.ml_model_path)
    return pearl_network(spec, ml_model).run(spec.trace.build(spec.config))


def _run_cmesh_job(spec: JobSpec) -> JobResult:
    from ..noc.cmesh import CMeshNetwork

    kwargs = {}
    if spec.bandwidth_divisor is not None:
        kwargs["bandwidth_divisor"] = spec.bandwidth_divisor
    network = CMeshNetwork(
        simulation=spec.config.simulation, seed=spec.seed, **kwargs
    )
    stats = network.run(spec.trace.build(spec.config))
    return JobResult(kind=spec.kind, stats=stats)


def _run_mwsr_job(spec: JobSpec) -> JobResult:
    from ..noc.mwsr import MwsrNetwork

    network = MwsrNetwork(spec.config, seed=spec.seed)
    stats = network.run(spec.trace.build(spec.config))
    return JobResult(
        kind=spec.kind,
        stats=stats,
        extras={"token_wait_events": int(network.total_token_waits())},
    )


def _run_trace_job(spec: JobSpec) -> JobResult:
    counts = spec.trace.build(spec.config).packets_by_core_type()
    return JobResult(
        kind=spec.kind,
        extras={
            "cpu_packets": int(counts[CoreType.CPU]),
            "gpu_packets": int(counts[CoreType.GPU]),
        },
    )


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class ExperimentEngine:
    """Fans job specs out over processes, backed by the result cache.

    ``jobs=1`` executes inline through the identical worker function;
    ``jobs=N`` uses a process pool of N workers.  With a cache attached,
    hits skip execution entirely and fresh results are persisted.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        stream_prefix: str = "",
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        self.cache = cache
        #: Prepended to per-job telemetry stream tags — the sweep
        #: service sets ``shardNNN/`` so merged traces carry shard
        #: identity (see docs/sweep_service.md).
        self.stream_prefix = stream_prefix

    def run(
        self,
        specs: Sequence[JobSpec],
        keyed: Optional[Sequence[Tuple[str, Dict[str, object]]]] = None,
    ) -> List[JobResult]:
        """Execute all specs, returning results in submission order.

        ``keyed`` holds each spec's ``(key, payload)`` from
        :meth:`ResultCache.key_for` when the caller has computed them
        already (the sweep runner keys its specs for the manifest);
        otherwise a cached engine computes them here, once per job.
        """
        specs = list(specs)
        results: List[Optional[JobResult]] = [None] * len(specs)
        if self.cache is not None and keyed is None:
            keyed = [
                self.cache.key_for(spec, with_payload=True) for spec in specs
            ]
        pending: List[int] = []
        for index in range(len(specs)):
            hit = None
            if self.cache is not None:
                hit = self.cache.get_by_key(
                    keyed[index][0], decode=result_from_bytes
                )
            if hit is not None:
                results[index] = hit
            else:
                pending.append(index)

        if self.jobs > 1 and len(pending) > 1:
            workers = min(self.jobs, len(pending))
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker_obs,
                initargs=(OBS.config(),),
            ) as executor:
                computed = list(
                    executor.map(
                        execute_job, [specs[i] for i in pending]
                    )
                )
            for index, result in zip(pending, computed):
                results[index] = result
        else:
            for index in pending:
                results[index] = execute_job(specs[index])

        if self.cache is not None:
            for index in pending:
                key, payload = keyed[index]
                self.cache.put_by_key(key, results[index], spec_payload=payload)
        if OBS.enabled:
            self._record_batch_telemetry(results, executed=len(pending))
        return results  # type: ignore[return-value]

    def _record_batch_telemetry(
        self, results: Sequence[Optional[JobResult]], executed: int
    ) -> None:
        """Merge per-job telemetry and count this batch's engine work.

        Job snapshots merge order-independently (counters/histograms
        add, gauges take maxima; trace streams are re-tagged by
        submission index), so a serial run and any worker count produce
        identical registry state.  Cache hits carry the telemetry
        captured when the job originally executed, making warm re-runs
        report the same simulation metrics as cold ones.
        """
        registry = OBS.registry
        registry.counter(
            "engine/jobs_submitted", help="job specs submitted to the engine"
        ).inc(len(results))
        registry.counter(
            "engine/jobs_executed", help="jobs that missed the cache and ran"
        ).inc(executed)
        for index, result in enumerate(results):
            if result is not None and result.telemetry is not None:
                obs.merge_capture(
                    result.telemetry,
                    stream=f"{self.stream_prefix}job{index}",
                )


# -- process-wide default engine ---------------------------------------------

_ENGINE: Optional[ExperimentEngine] = None


def current_engine() -> ExperimentEngine:
    """The engine experiment modules submit through.

    Serial and uncached until :func:`configure` or :func:`engine_scope`
    replaces it.
    """
    global _ENGINE
    if _ENGINE is None:
        _ENGINE = ExperimentEngine()
    return _ENGINE


def configure(
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    backend: Optional[str] = None,
) -> ExperimentEngine:
    """Replace the default engine (the CLI's ``--jobs``/``--no-cache``).

    Unspecified fields keep the current engine's values.  ``backend``
    selects a cache store (``dir:PATH`` / ``sqlite:PATH``, see
    :func:`repro.experiments.service.stores.open_store`); without it
    the cache uses the process-default store.
    """
    global _ENGINE
    current = current_engine()
    new_jobs = current.jobs if jobs is None else jobs
    if use_cache is None:
        new_cache = current.cache
    elif use_cache:
        new_cache = ResultCache(store=backend)
    else:
        new_cache = None
    _ENGINE = ExperimentEngine(jobs=new_jobs, cache=new_cache)
    return _ENGINE


@contextmanager
def engine_scope(
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    backend: Optional[str] = None,
):
    """Temporarily swap the default engine, restoring it on exit."""
    global _ENGINE
    previous = _ENGINE
    try:
        yield configure(jobs=jobs, use_cache=use_cache, backend=backend)
    finally:
        _ENGINE = previous


def run_jobs(specs: Sequence[JobSpec]) -> List[JobResult]:
    """Submit specs through the process-wide default engine."""
    return current_engine().run(specs)
