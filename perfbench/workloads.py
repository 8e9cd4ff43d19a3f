"""The three PEARL benchmark workloads.

Each workload builds a fixed list of operations from the workload seed,
does its set-up, then runs the operations closed loop (one in flight)
through the paths users call, with no engine argument:

* ``parsec_sweep`` — a cold sweep shard: ``ExperimentEngine(jobs=1)``
  over a fresh ``dir:`` result cache, Table IV test pairs x the five
  adaptation policies plus one faulted reactive row; set-up trains the
  default ML model on a cold registry;
* ``collective_retrain`` — the collective schedules x {nrz, pam4} x
  {reactive, ml with online retraining, proteus, d3noc} through the
  same engine path; set-up fits the deployment model;
* ``serve_hits`` — a ``pearl-sim serve --jobs 1`` subprocess on the
  default ``dir:`` store, filled at set-up with K specs of both shapes;
  every request is a cache hit.

Operations are timed with ``time.perf_counter``; run.py normalises the
intervals to machine speed with the samples :mod:`calib` takes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import http.client
import json
import math
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.config import PearlConfig, SimulationConfig
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import (
    ExperimentEngine,
    collective_spec,
    pair_spec,
    pearl_job,
)
from repro.experiments.service.client import ServeClient, ServeError
from repro.experiments.service.spec_codec import spec_to_doc
from repro.faults.schedule import load_fault_schedule
from repro.ml import pipeline
from repro.ml.lifecycle.registry import default_registry, feature_schema
from repro.noc.router import PowerPolicyKind
from repro.traffic.benchmarks import test_pairs
from repro.traffic.collectives import COLLECTIVE_ALGORITHMS
from calib import RoundTrip
from spans import Span, adopt_server_spans

#: Reservation window of every workload: short enough that collective
#: phase boundaries land in distinct windows and that drift can trip
#: and retrain inside a short job.
WINDOW = 100
#: (warm-up, measured) cycles of one job.
PARSEC_CYCLES = (200, 1000)
COLLECTIVE_CYCLES = (100, 1200)
#: The faulted row runs long enough for every fault kind in
#: examples/faults.yaml to be active (bit errors from cycle 1,000,
#: wavelength loss from 2,000).
FAULTED_CYCLES = (500, 2000)

PARSEC_POLICIES = ("static", "reactive", "ml", "proteus", "d3noc")
COLLECTIVE_POLICIES = ("reactive", "ml", "proteus", "d3noc")
SIGNALING = ("nrz", "pam4")

#: The tight drift/retrain knobs of ``collective_study``'s ML rows.
RETRAIN_ML = dict(
    drift_detection=True,
    drift_action="retrain",
    drift_calibration_windows=8,
    drift_patience=3,
    drift_z_threshold=4.0,
    retrain_min_samples=20,
    retrain_cooldown_windows=10_000,
)

#: Registry tag served ML specs reference.
MODEL_TAG = "perfbench"

#: Operations per nominal second of ``--seconds``: at the committed
#: run length every workload has at least ten samples beyond p90.
OPS_PER_SECOND = {"parsec_sweep": 6, "collective_retrain": 5, "serve_hits": 150}

#: While the server runs, timer samples are held; requests are
#: normalised by SERVE_TRIPS reference round trips made before every
#: SERVE_BATCH requests, and the server start by kernel samples around it.
SERVE_BATCH = 10
SERVE_TRIPS = 2
SERVE_SAMPLES = 4
#: In the traced run, every TWIN_EVERY-th job is repeated with tracing
#: off to measure the tracing overhead.  Every served request is: the
#: untraced server must stay as warm as the traced one, and a server
#: that answers only every fourth request reads ~9 % slower.
TWIN_EVERY = 4


@dataclasses.dataclass
class Context:
    """What one benchmark process knows: paths, seed, clock, tracer."""

    root: Path
    tmp: Path
    workload: str
    seed: int
    seconds: int
    clock: Any
    tracer: Any = None

    def ops(self) -> int:
        return max(2, self.seconds * OPS_PER_SECOND[self.workload])

    def job_seed(self, index: int) -> int:
        """Distinct per job and per workload seed."""
        return self.seed * 1000 + index


@dataclasses.dataclass
class Outcome:
    """Raw observations of one run; run.py turns them into metrics."""

    #: (start, end) wall interval of each timed operation.
    ops: List[Tuple[float, float]] = dataclasses.field(default_factory=list)
    results: List[Any] = dataclasses.field(default_factory=list)
    #: Simulated cycles each operation's result covers.
    cycles: List[int] = dataclasses.field(default_factory=list)
    #: Indices of operations that failed or did not pass the checks.
    failed: set = dataclasses.field(default_factory=set)
    #: What went wrong, per operation or for the whole run; any entry
    #: makes the run incorrect.
    problems: List[str] = dataclasses.field(default_factory=list)
    #: (traced interval, untraced interval) pairs of the traced run.
    twins: List[Tuple[Tuple[float, float], Tuple[float, float]]] = (
        dataclasses.field(default_factory=list))
    peak_rss_mb: float = 0.0
    #: Normalise the operations by reference round trips, not the kernel.
    by_round_trips: bool = False
    extra: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def fail(self, index: int, message: str) -> None:
        self.failed.add(index)
        self.problems.append(f"op {index}: {message}")


# -- configs and op lists ---------------------------------------------------


def _config(cycles: Tuple[int, int], signaling: str = "nrz",
            retrain: bool = False) -> PearlConfig:
    warmup, measure = cycles
    config = PearlConfig(
        simulation=SimulationConfig(warmup_cycles=warmup, measure_cycles=measure)
    ).with_reservation_window(WINDOW)
    if signaling != "nrz":
        config = config.replace(
            photonic=dataclasses.replace(config.photonic, signaling=signaling))
    if retrain:
        config = config.replace(ml=dataclasses.replace(config.ml, **RETRAIN_ML))
    return config


def parsec_specs(ctx: Context, model_path: str, count: int) -> list:
    """Test pairs x policies, then one faulted reactive row, repeated."""
    faults = load_fault_schedule(ctx.root / "examples" / "faults.yaml")
    pairs = test_pairs()
    config = _config(PARSEC_CYCLES)
    shapes = [(pair, policy, config, None)
              for pair in pairs for policy in PARSEC_POLICIES]
    shapes.append((pairs[0], "reactive", _config(FAULTED_CYCLES), faults))
    specs = []
    for index in range(count):
        pair, policy, config, schedule = shapes[index % len(shapes)]
        seed = ctx.job_seed(index)
        specs.append(pearl_job(
            config, pair_spec(pair, seed), seed=seed,
            power_policy=PowerPolicyKind(policy),
            ml_model_path=model_path if policy == "ml" else None,
            faults=schedule,
        ))
    return specs


def collective_specs(ctx: Context, model_path: str, count: int) -> list:
    """Collective schedules x signaling x policies, repeated."""
    shapes = [(algorithm, signaling, policy)
              for algorithm in COLLECTIVE_ALGORITHMS
              for signaling in SIGNALING
              for policy in COLLECTIVE_POLICIES]
    specs = []
    for index in range(count):
        algorithm, signaling, policy = shapes[index % len(shapes)]
        seed = ctx.job_seed(index)
        specs.append(pearl_job(
            _config(COLLECTIVE_CYCLES, signaling, retrain=policy == "ml"),
            collective_spec(algorithm, seed), seed=seed,
            power_policy=PowerPolicyKind(policy),
            ml_model_path=model_path if policy == "ml" else None,
        ))
    return specs


def serve_specs(ctx: Context, model_path: str) -> list:
    """K = 8 specs of both batch shapes: (spec, registry tag or None)."""
    pairs = test_pairs()
    specs = []
    for index, (pair, policy) in enumerate(
            [(pairs[0], "static"), (pairs[5], "reactive"),
             (pairs[10], "ml"), (pairs[15], "d3noc")]):
        seed = ctx.job_seed(index)
        specs.append(pearl_job(
            _config(PARSEC_CYCLES), pair_spec(pair, seed), seed=seed,
            power_policy=PowerPolicyKind(policy),
            ml_model_path=model_path if policy == "ml" else None))
    for index, (algorithm, signaling, policy) in enumerate(
            [("allreduce_ring", "nrz", "reactive"),
             ("halving_doubling", "pam4", "ml"),
             ("alltoall", "nrz", "proteus"),
             ("parameter_server", "pam4", "d3noc")], start=4):
        seed = ctx.job_seed(index)
        specs.append(pearl_job(
            _config(COLLECTIVE_CYCLES, signaling, retrain=policy == "ml"),
            collective_spec(algorithm, seed), seed=seed,
            power_policy=PowerPolicyKind(policy),
            ml_model_path=model_path if policy == "ml" else None))
    return [(spec, MODEL_TAG if spec.ml_model_path else None) for spec in specs]


def deployment_model_path() -> str:
    """Fit the deployment model, store it in the registry, tag it."""
    config = PearlConfig().with_reservation_window(WINDOW)
    model = pipeline.deployment_fitted_model(config=config)
    registry = default_registry()
    record = registry.put(
        model,
        training={"key": {"pipeline": "deployment_fitted", "window": WINDOW}},
        schema=feature_schema(config.ml),
    )
    registry.promote(record.model_id, MODEL_TAG)
    return str(registry.model_path(record.model_id))


# -- output checks ----------------------------------------------------------

_ENERGY_FIELDS = ("laser_energy_j", "trimming_energy_j", "modulation_energy_j",
                  "receiver_energy_j", "ml_energy_j", "electrical_energy_j")


def check_job(result, config: PearlConfig) -> Optional[str]:
    """The conservation checks every job must pass; None when it does."""
    stats = result.stats
    if stats is None:
        return "no network statistics"
    if stats.crc_errors != stats.retransmissions + stats.packets_dropped:
        return (f"crc_errors {stats.crc_errors} != retransmissions "
                f"{stats.retransmissions} + dropped {stats.packets_dropped}")
    residency = sum(result.state_residency.values())
    if abs(residency - 1.0) > 1e-9:
        return f"state residencies sum to {residency!r}"
    for name in _ENERGY_FIELDS:
        value = getattr(stats, name)
        if not (math.isfinite(value) and value >= 0.0):
            return f"{name} = {value!r}"
    # Counters restart when warm-up ends, so packets already inside the
    # routers then are delivered but not injected in the measured window;
    # the routers' input buffering bounds how many there can be.
    injected = sum(c.packets_injected for c in stats.counters.values())
    in_flight = config.architecture.num_routers * (
        config.dba.cpu_buffer_slots + config.dba.gpu_buffer_slots)
    if stats.packets_delivered > injected + in_flight:
        return (f"delivered {stats.packets_delivered} > injected {injected} "
                f"+ {in_flight} buffered at warm-up end")
    return None


def signature(result) -> tuple:
    """Everything a served result must reproduce of the stored one."""
    return (result.stats.to_dict(), sorted(result.state_residency.items()),
            result.mean_laser_power_w, result.laser_stall_cycles,
            list(result.ml_predictions), list(result.ml_labels))


def sim_digest(results) -> str:
    """One digest of every result's statistics, residency and laser power."""
    digest = hashlib.sha256()
    for result in results:
        digest.update(json.dumps(
            [result.stats.to_dict(), sorted(result.state_residency.items()),
             result.mean_laser_power_w], sort_keys=True).encode())
    return digest.hexdigest()


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


# -- batch workloads ---------------------------------------------------------


def _timed(call) -> Tuple[Tuple[float, float], Any]:
    start = time.perf_counter()
    value = call()
    return (start, time.perf_counter()), value


def _run_jobs(ctx: Context, specs: list) -> Outcome:
    outcome = Outcome()
    engine = ExperimentEngine(jobs=1, cache=ResultCache(store=f"dir:{ctx.tmp / 'results'}"))
    twin = None
    if ctx.tracer is not None:
        twin = ExperimentEngine(jobs=1, cache=ResultCache(store=f"dir:{ctx.tmp / 'twin'}"))
    for index, spec in enumerate(specs):
        if ctx.tracer is not None:
            ctx.tracer.op = index
        run = lambda: engine.run([spec])[0]  # noqa: E731
        if twin is not None and index % TWIN_EVERY == 0:
            interval, result = _twinned(
                ctx, index, run, lambda: twin.run([spec])[0], outcome)
        else:
            interval, result = _timed(run)
        outcome.ops.append(interval)
        outcome.results.append(result)
        outcome.cycles.append(spec.config.simulation.total_cycles)
    for index, (spec, result) in enumerate(zip(specs, outcome.results)):
        problem = check_job(result, spec.config)
        if problem:
            outcome.fail(index, problem)
    outcome.peak_rss_mb = peak_rss_mb()
    return outcome


def _twinned(ctx: Context, index: int, traced, untraced, outcome: Outcome,
             every: int = TWIN_EVERY):
    """Run one operation traced and untraced, alternating which goes first."""
    untraced_first = (index // every) % 2 == 1
    if untraced_first:
        plain = _untraced(ctx, untraced)
    interval, result = _timed(traced)
    if not untraced_first:
        plain = _untraced(ctx, untraced)
    outcome.twins.append((interval, plain[0]))
    if result is not None and signature(plain[1]) != signature(result):
        outcome.fail(index, "the untraced twin returned a different result")
    return interval, result


def _untraced(ctx: Context, call):
    ctx.tracer.enabled = False
    try:
        return _timed(call)
    finally:
        ctx.tracer.enabled = True


def parsec_sweep(ctx: Context) -> Outcome:
    model_path = str(pipeline.ensure_model_file(WINDOW, quick=True))
    return _run_jobs(ctx, parsec_specs(ctx, model_path, ctx.ops()))


def collective_retrain(ctx: Context) -> Outcome:
    model_path = deployment_model_path()
    return _run_jobs(ctx, collective_specs(ctx, model_path, ctx.ops()))


# -- serve_hits ----------------------------------------------------------------


class Server:
    """One ``pearl-sim serve`` subprocess on the run's store and registry."""

    def __init__(self, ctx: Context, name: str, traced: bool) -> None:
        self.spans_path = ctx.tmp / f"{name}-spans.json"
        command = [sys.executable, "-m", "repro.cli"]
        if traced:
            command = [sys.executable, str(Path(__file__).with_name("serve_main.py")),
                       str(self.spans_path)]
        command += ["serve", "--port", "0", "--jobs", "1"]
        self.stderr = open(ctx.tmp / f"{name}.stderr", "w+")
        self.process = subprocess.Popen(
            command, cwd=ctx.tmp, stdout=subprocess.PIPE, stderr=self.stderr,
            text=True)

    def wait_ready(self, timeout: float = 60.0) -> ServeClient:
        """Read the announced port, then probe /healthz."""
        deadline = time.monotonic() + timeout
        line = ""
        while not line:
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"serve did not start: {self.errors()}")
            ready, _, _ = select.select([self.process.stdout], [], [], 0.2)
            if ready:
                line = self.process.stdout.readline()
        port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        client = ServeClient(port=port, timeout=60.0)
        if not client.healthz():
            raise RuntimeError("serve announced a port but /healthz failed")
        return client

    def errors(self) -> str:
        self.stderr.seek(0)
        return self.stderr.read()[-2000:]

    def stop(self) -> Tuple[float, str]:
        """SIGINT the server (SIGKILL after 30 s); return (VmHWM MiB, stderr)."""
        rss = 0.0
        if self.process.poll() is None:
            rss = peak_rss_mb(str(self.process.pid))
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        text = self.errors()
        self.stderr.close()
        return rss, text


def _request(client: ServeClient, doc: dict, index: int, outcome: Outcome):
    try:
        return client.submit_result(doc)
    except ServeError as exc:
        outcome.fail(index, str(exc))
        return None


def _response_bytes(client: ServeClient, doc: dict) -> int:
    connection = http.client.HTTPConnection(client.host, client.port, timeout=60)
    try:
        connection.request("POST", "/simulate", body=json.dumps(doc).encode(),
                           headers={"Content-Type": "application/json"})
        return len(connection.getresponse().read())
    finally:
        connection.close()


def serve_hits(ctx: Context) -> Outcome:
    entries = serve_specs(ctx, deployment_model_path())
    fill = ExperimentEngine(jobs=1, cache=ResultCache(store=f"dir:{ctx.tmp / 'results'}"))
    stored = []
    for spec, _tag in entries:
        (result,) = fill.run([spec])
        problem = check_job(result, spec.config)
        if problem:
            raise RuntimeError(f"set-up job failed its checks: {problem}")
        stored.append(result)
    docs = [spec_to_doc(spec, ml_model=tag) for spec, tag in entries]
    expected = [signature(result) for result in stored]
    cycles = [spec.config.simulation.total_cycles for spec, _ in entries]

    servers = {}
    outcome = Outcome(by_round_trips=True)
    trips = None
    try:
        # The server shares this process's CPU: timer samples are held
        # while it works, and taken in bursts while it is idle.
        with ctx.clock.held():
            ctx.clock.sample(SERVE_SAMPLES)
            start = time.perf_counter()
            servers["serve"] = Server(ctx, "serve", traced=ctx.tracer is not None)
            client = servers["serve"].wait_ready()
            end = time.perf_counter()
            ctx.clock.sample(SERVE_SAMPLES)
            outcome.extra["service.start_s"] = ctx.clock.normalised(start, end)
            trips = RoundTrip()
            twin = None
            if ctx.tracer is not None:
                servers["twin"] = Server(ctx, "twin", traced=False)
                twin = servers["twin"].wait_ready()
            for index in range(ctx.ops()):
                slot = index % len(docs)
                if index % SERVE_BATCH == 0:
                    trips.probe(ctx.clock.round_trips, SERVE_TRIPS)
                if ctx.tracer is not None:
                    ctx.tracer.op = index
                request = lambda: _request(client, docs[slot], index, outcome)  # noqa: E731
                if twin is not None:
                    interval, result = _twinned(
                        ctx, index, request,
                        lambda: _request(twin, docs[slot], index, outcome), outcome, every=1)
                else:
                    interval, result = _timed(request)
                outcome.ops.append(interval)
                outcome.results.append(result)
                outcome.cycles.append(cycles[slot])
                if result is not None and signature(result) != expected[slot]:
                    outcome.fail(index, "served result differs from the stored one")
            trips.probe(ctx.clock.round_trips, SERVE_TRIPS)
        stats = client.stats()
        outcome.extra["service.rejected"] = stats["rejected"]
        outcome.extra["service.errors"] = stats["errors"]
        if ctx.tracer is not None:
            outcome.extra["service.response_bytes"] = sum(
                _response_bytes(client, doc) for doc in docs) / len(docs)
    finally:
        if trips is not None:
            trips.stop()
        for name, server in servers.items():
            rss, errors = server.stop()
            if name == "serve":
                outcome.peak_rss_mb = rss
            if "leaked" in errors or "Traceback" in errors:
                outcome.problems.append(f"{name} stderr: {errors.strip()[-300:]}")
    # Errors and 503s the server counted are failed operations even if
    # the client never saw them.
    server_failures = outcome.extra["service.errors"] + outcome.extra["service.rejected"]
    outcome.extra["server_failures"] = server_failures
    if server_failures:
        outcome.problems.append(f"the server counted {server_failures} errors and rejections")
    if ctx.tracer is not None:
        server_spans = [Span.from_dict(doc) for doc in json.loads(
            servers["serve"].spans_path.read_text())]
        adopt_server_spans(ctx.tracer.spans, server_spans)
    return outcome


WORKLOADS = {
    "parsec_sweep": parsec_sweep,
    "collective_retrain": collective_retrain,
    "serve_hits": serve_hits,
}
