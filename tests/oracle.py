"""The engine oracle: one run description, fingerprint, runner and law set.

The array core (``PearlNetwork.run(trace, engine="array")``) must
reproduce the cycle-by-cycle reference engine bit for bit, and every
run must obey the conservation laws.  Every differential and law check
of the suite goes through this module:

* :class:`Run` describes a whole run as plain data (configuration
  knobs, trace, policy, allocator, seeds, faults, model, responder and
  L3 link count) and builds its configuration, trace and network;
* :func:`fingerprint` is everything two runs of one description must
  agree on: every :class:`~repro.noc.network.JobResult` field,
  statistics with their latency histogram, the digest of the per-packet
  latencies in delivery order (:func:`keep_delivery_order` keeps the
  list the histogram folds), and the network's end state (sequence
  number, injection backlog, retransmit queue, packet census and each
  router's laser, reservation, fault-clamp and ML-energy state);
* :func:`run_engine` runs one engine, records the frozen rows the
  engine hands :meth:`PearlNetwork._close_windows` at every close and
  checks the laws; :func:`check_run` runs both engines and requires
  equal closes and fingerprints;
* :func:`check_laws` holds the conservation laws.  Identity cannot
  catch a bug in code both engines share (the close path, the
  responder, the policies); the laws can;
* :func:`traces`, :func:`fault_schedules` and :func:`run_descriptions`
  are the hypothesis strategies that draw traces, fault schedules and
  whole runs.

``scripts/bench.py`` compares engines through :func:`fingerprint` too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple

import numpy as np
from hypothesis import strategies as st

from repro.config import (
    ArchitectureConfig,
    PearlConfig,
    PowerScalingConfig,
    ResilienceConfig,
    SimulationConfig,
)
from repro.faults import (
    BitErrorFault,
    FaultSchedule,
    LaserDroopFault,
    WavelengthFault,
)
from repro.ml.features import NUM_FEATURES
from repro.ml.lifecycle.registry import DEFAULT_TAG, ModelRegistry
from repro.ml.ridge import RidgeRegression, Standardizer
from repro.noc.network import JobResult, PearlNetwork, ResponderConfig
from repro.noc.packet import CacheLevel, CoreType, PacketClass
from repro.noc.router import PowerPolicyKind
from repro.traffic.benchmarks import (
    CPU_BENCHMARKS,
    GPU_BENCHMARKS,
    get_benchmark,
)
from repro.traffic.collectives import (
    COLLECTIVE_ALGORITHMS,
    generate_collective_trace,
)
from repro.traffic.synthetic import generate_pair_trace, uniform_random_trace
from repro.traffic.trace import InjectionEvent, Trace

ENGINES = PearlNetwork.ENGINES
POLICIES = tuple(kind.value for kind in PowerPolicyKind)

# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


def literal_model() -> RidgeRegression:
    """A ridge model with literal weights, for the ML policy.

    The weights are set directly instead of fitted: a closed-form
    lstsq/BLAS solve could differ in the last ulp across platforms,
    while a literal weight vector is bit-identical everywhere.  Feature
    8 (packets received from local cores last window) with a 0.5 gain
    plus a constant bias gives predictions that actually vary with
    load, so the selector exercises several ladder states.
    """
    model = RidgeRegression(lam=1.0, standardize=False)
    weights = np.zeros(NUM_FEATURES)
    weights[8] = 0.5
    model.weights = weights
    model.intercept = 4.0
    return model


def drifting_model() -> RidgeRegression:
    """The literal model plus a training scaler centred at -100.

    Deployment features live around [0, 50], so every window's feature
    EWMA lies far beyond the drift threshold the moment calibration
    ends, and the drift monitor trips deterministically.
    """
    model = literal_model()
    model._scaler = Standardizer(
        mean=np.full(NUM_FEATURES, -100.0), scale=np.ones(NUM_FEATURES)
    )
    return model


def toy_model() -> RidgeRegression:
    """A fitted ridge model (arbitrary weights; determinism is what counts)."""
    rng = np.random.default_rng(0)
    model = RidgeRegression(lam=1.0)
    model.fit(rng.normal(size=(64, NUM_FEATURES)), rng.normal(size=64))
    return model


def registry_model(root: Path) -> RidgeRegression:
    """The literal model, deployed the way production runs get it:
    a registry put, promote and get under ``root``."""
    registry = ModelRegistry(root)
    source = literal_model()
    record = registry.put(
        source, training={"key": {"pipeline": "seed_matrix_literal"}}
    )
    registry.promote(record.model_id)
    model = registry.get(DEFAULT_TAG)
    # The artifact round trip must be lossless before it drives runs.
    assert np.array_equal(model.weights, source.weights)
    assert model.intercept == source.intercept
    return model


MODELS = {
    "literal": literal_model,
    "drifting": drifting_model,
    "toy": toy_model,
}

# ---------------------------------------------------------------------------
# The run description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Run:
    """One whole run as plain data.

    ``trace`` is one of ``("pair", cpu, gpu, duration, seed)``,
    ``("uniform", core, rate, duration, seed)`` (``core`` is ``"cpu"``
    or ``"gpu"``), ``("collective", algorithm, duration, seed)`` and
    ``("events", ((cycle, source, destination, core), ...))``, a list
    of single-flit requests.  ``model`` names the ML policy's model
    (``"literal"``, ``"drifting"``, ``"toy"`` or ``"registry"``, the
    literal model through a registry round trip) and is only deployed
    under the ML policy.  ``stagger``,
    ``turn_on_ns``, ``quantization``, ``pools`` (CPU and GPU input
    slots), ``retry`` (``ResilienceConfig`` arguments) and
    ``drift_action`` keep the configuration default when ``None``.
    """

    trace: tuple
    policy: str = "static"
    allocator: str = "dynamic"
    seed: int = 3
    model: Optional[str] = None
    faults: Optional[FaultSchedule] = None
    responder: Optional[ResponderConfig] = None
    l3_links: int = 8
    clusters: int = 16
    warmup: int = 100
    measure: int = 1_500
    window: int = 200
    stagger: Optional[int] = None
    turn_on_ns: Optional[float] = None
    signaling: str = "nrz"
    quantization: Optional[str] = None
    pools: Optional[Tuple[int, int]] = None
    retry: Optional[Tuple[int, int, int]] = None
    drift_action: Optional[str] = None

    def config(self) -> PearlConfig:
        scaling = PowerScalingConfig(reservation_window=self.window)
        if self.stagger is not None:
            scaling = replace(scaling, router_stagger_cycles=self.stagger)
        config = PearlConfig(
            architecture=ArchitectureConfig(num_clusters=self.clusters),
            simulation=SimulationConfig(
                warmup_cycles=self.warmup, measure_cycles=self.measure
            ),
            power_scaling=scaling,
        )
        if self.turn_on_ns is not None:
            config = config.with_turn_on_ns(self.turn_on_ns)
        if self.signaling != "nrz":
            config = config.replace(
                photonic=replace(config.photonic, signaling=self.signaling)
            )
        if self.pools is not None:
            cpu, gpu = self.pools
            config = config.replace(
                dba=replace(
                    config.dba, cpu_buffer_slots=cpu, gpu_buffer_slots=gpu
                )
            )
        if self.retry is not None:
            config = config.replace(resilience=ResilienceConfig(*self.retry))
        ml = config.ml
        if self.quantization is not None:
            ml = replace(ml, quantization=self.quantization)
        if self.drift_action is not None:
            # Short calibration and patience so drift can trip in a
            # short run; a long cooldown allows one retrain at most.
            ml = replace(
                ml,
                drift_detection=True,
                drift_action=self.drift_action,
                drift_calibration_windows=2,
                drift_patience=2,
                retrain_min_samples=20,
                retrain_cooldown_windows=10_000,
            )
        return config.replace(ml=ml)

    def build_trace(self) -> Trace:
        architecture = ArchitectureConfig(num_clusters=self.clusters)
        kind, *args = self.trace
        if kind == "pair":
            cpu, gpu, duration, seed = args
            return generate_pair_trace(
                get_benchmark(cpu),
                get_benchmark(gpu),
                architecture,
                duration,
                seed,
            )
        if kind == "uniform":
            core, rate, duration, seed = args
            return uniform_random_trace(
                CoreType(core),
                rate=rate,
                architecture=architecture,
                duration=duration,
                seed=seed,
            )
        if kind == "collective":
            algorithm, duration, seed = args
            return generate_collective_trace(
                algorithm, architecture, duration=duration, seed=seed
            )
        if kind == "events":
            (events,) = args
            return Trace([_request(*event) for event in events], name=kind)
        raise ValueError(f"unknown trace kind {kind!r}")

    def network(self, root: Optional[Path] = None) -> PearlNetwork:
        """A fresh network; ``root`` holds the registry that the
        ``registry`` model and online retraining write to."""
        model = None
        if self.policy == "ml":
            model = (
                registry_model(root)
                if self.model == "registry"
                else MODELS[self.model]()
            )
        network = PearlNetwork(
            self.config(),
            power_policy=PowerPolicyKind(self.policy),
            use_dynamic_bandwidth=self.allocator == "dynamic",
            ml_model=model,
            responder=self.responder,
            l3_parallel_links=self.l3_links,
            seed=self.seed,
            faults=self.faults,
            registry=None if root is None else ModelRegistry(root),
        )
        return keep_delivery_order(network)


def _request(cycle, source, destination, core) -> InjectionEvent:
    """A single-flit request; a core's request to its own cluster is an
    L1 access, any other an L2 miss."""
    core_type = CoreType(core)
    cpu = core_type is CoreType.CPU
    if source == destination:
        level = CacheLevel.CPU_L1_DATA if cpu else CacheLevel.GPU_L1
    else:
        level = CacheLevel.CPU_L2_DOWN if cpu else CacheLevel.GPU_L2_DOWN
    return InjectionEvent(
        cycle=cycle,
        source=source,
        destination=destination,
        core_type=core_type,
        packet_class=PacketClass.REQUEST,
        cache_level=level,
    )


#: Wavelength + droop + bit-error faults inside a 1,600-cycle run.
FAULTS = FaultSchedule(
    wavelength_faults=(
        WavelengthFault(wavelengths=24, router=3, start=300, end=900),
    ),
    droop_faults=(LaserDroopFault(max_state=32, router=7, start=500),),
    bit_error_faults=(BitErrorFault(rate=0.02, start=250, end=1000),),
)


#: Responses ready in the cycle their request drained, at the default
#: L3 miss rates and at 0 and 1 (every L3 response a hit, or a miss).
ZERO_LATENCY = (
    ResponderConfig(l3_hit_latency=0, local_l2_latency=0, peer_latency=0),
) + tuple(
    ResponderConfig(
        l3_hit_latency=0,
        local_l2_latency=0,
        peer_latency=0,
        cpu_l3_miss_rate=rate,
        gpu_l3_miss_rate=rate,
    )
    for rate in (0.0, 1.0)
)


# ---------------------------------------------------------------------------
# Fingerprint, laws and runner
# ---------------------------------------------------------------------------


def keep_delivery_order(network):
    """Keep the run's per-packet latencies, in delivery order.

    :meth:`NetworkStats.finish` folds them into the latency histogram,
    which forgets their order.  Wrapped here, ``finish`` first sets
    ``network.stats.delivery_order`` to the list it is about to fold,
    so :func:`delivery_digest` can pin every sample in its place.
    Works on any network with a ``stats``; returns the network.
    """
    stats = network.stats
    finish = stats.finish

    def keeping_finish(cycle: int) -> None:
        stats.delivery_order = stats._latencies
        finish(cycle)

    stats.finish = keeping_finish
    return network


def delivery_digest(stats) -> str:
    """SHA-256 of a run's per-packet latencies in delivery order, as kept
    by :func:`keep_delivery_order` (the goldens' ``latencies_sha256``)."""
    return hashlib.sha256(
        ",".join(str(value) for value in stats.delivery_order).encode()
    ).hexdigest()


def fingerprint(network: PearlNetwork, result: JobResult) -> dict:
    """Everything two runs of one description must reproduce exactly.

    The network must have run under :func:`keep_delivery_order`.
    """
    out = {
        field.name: getattr(result, field.name)
        for field in dataclasses.fields(result)
    }
    out["stats"] = result.stats.to_dict()
    out["latencies_sha256"] = delivery_digest(result.stats)
    out["sequence"] = network._sequence
    out["backlog"] = network.injection_backlog_size
    out["retransmit_queue"] = network.retransmit_queue_size
    out["census"] = network.pending_packet_census()
    out["warmup_census"] = network.warmup_census
    routers = network.routers
    out["laser_energy_j"] = [r.laser.energy_j for r in routers]
    out["cycles_in_state"] = [dict(r.laser.cycles_in_state) for r in routers]
    out["stall_cycles"] = [r.laser.stall_cycles for r in routers]
    out["transitions"] = [r.laser.transitions for r in routers]
    out["final_state"] = [r.laser.state for r in routers]
    out["reservations_sent"] = [r.reservations_sent for r in routers]
    out["fault_clamp_events"] = [r.fault_clamp_events for r in routers]
    out["ml_energy_j"] = [r.ml_energy_j for r in routers]
    return out


def check_laws(network: PearlNetwork, result: JobResult) -> None:
    """Assert the conservation laws on one finished run.

    The packet law holds on every run: the packets pending at the
    warm-up boundary (``network.warmup_census``, all zeros without a
    warm-up) plus the packets injected after it equal the delivered,
    the dropped and the packets still pending at the end.  A packet
    counts as injected when it enters a router, so the injection
    backlog sits upstream of both sides of the balance.  The retry
    bound compares drops with CRC errors, which the warm-up boundary
    resets apart, so it applies to warm-up-free runs only.

    The histogram law: the latency histogram holds one sample per
    delivered packet, and its samples sum to the counters' total
    latency.

    The laser law holds per router: the bank's residency and powered
    cycle counts each sum to the measured cycles, its stall cycles do
    not exceed them, its energy is its ladder's power at each powered
    state times the cycles at that power times the cycle time, and the
    run's laser energy is the banks' energies times their parallel
    links, summed in router order.
    """
    stats = result.stats
    assert stats.crc_errors == stats.retransmissions + stats.packets_dropped
    residency = list(result.state_residency.values())
    assert abs(sum(residency) - 1.0) < 1e-9, residency
    assert all(0.0 <= fraction <= 1.0 for fraction in residency)
    check_laser_law(network, stats)
    assert stats.laser_energy_j >= 0
    assert stats.trimming_energy_j >= 0
    assert stats.total_energy_j() >= 0
    if stats.packets_delivered:
        assert stats.mean_latency() > 0
    values, counts = stats.latency_values, stats.latency_counts
    assert sum(counts) == stats.packets_delivered
    assert sum(v * c for v, c in zip(values, counts)) == sum(
        counter.total_latency for counter in stats.counters.values()
    )
    opening = network.warmup_census
    injected = sum(c.packets_injected for c in stats.counters.values())
    census = network.pending_packet_census()
    assert sum(opening.values()) + injected == (
        stats.packets_delivered + stats.packets_dropped + sum(census.values())
    ), (opening, census)
    config = network.config
    if config.simulation.warmup_cycles:
        return
    # A packet drops at its CRC failure after retry_limit retries.
    retry_limit = config.resilience.retry_limit
    assert stats.packets_dropped * (retry_limit + 1) <= stats.crc_errors


def check_laser_law(network: PearlNetwork, stats) -> None:
    """Laser energy = state residency × state power, router by router."""
    measured = stats.measured_cycles
    cycle_s = (1.0 / network.config.architecture.network_frequency_ghz) * 1e-9
    laser_energy_j = 0.0
    for router in network.routers:
        bank = router.laser
        powered = bank._cycles_at_power
        rid = router.router_id
        assert sum(bank.cycles_in_state.values()) == measured, rid
        assert sum(powered.values()) == measured, rid
        assert 0 <= bank.stall_cycles <= measured, rid
        energy_j = 0.0
        for state in sorted(powered):
            energy_j += bank.ladder.power_w(state) * powered[state] * cycle_s
        assert bank.energy_j == energy_j, rid
        laser_energy_j += bank.energy_j * router.parallel_links
    assert stats.laser_energy_j == laser_energy_j


class Outcome(NamedTuple):
    """One engine's run: its window closes and its fingerprint."""

    closes: List[tuple]
    fingerprint: dict


def run_engine(run: Run, engine: str, trace: Trace) -> Outcome:
    """Run one engine, recording every ``_close_windows`` call as its
    cycle, the closing router ids and each frozen ``(label, row,
    Buf_w mean, pool slots)`` with the row as its exact float64 bytes
    (so -0.0 and NaN compare exactly), and check the laws."""
    with tempfile.TemporaryDirectory() as root:
        network = run.network(Path(root))
        closes = []
        close_windows = network._close_windows

        def recording_close_windows(closers, frozen, cycle):
            closes.append(
                (
                    cycle,
                    [router.router_id for router in closers],
                    [
                        (
                            label,
                            np.asarray(row, dtype=float).tobytes(),
                            buf_mean,
                            slots,
                        )
                        for label, row, buf_mean, slots in frozen
                    ],
                )
            )
            close_windows(closers, frozen, cycle)

        network._close_windows = recording_close_windows
        result = network.run(trace, engine=engine)
    check_laws(network, result)
    return Outcome(closes, fingerprint(network, result))


def check_run(run: Run) -> Outcome:
    """Run both engines; require equal closes and fingerprints.

    Comparing the frozen rows catches a divergence in lazily settled
    window counters even where the result would not show it, as under
    STATIC, which never reads them.  Returns the array engine's outcome
    for further checks.
    """
    trace = run.build_trace()
    reference, array = (run_engine(run, engine, trace) for engine in ENGINES)
    assert reference.closes, "no window closed"
    assert array.closes == reference.closes, "frozen rows diverged"
    assert array.fingerprint == reference.fingerprint
    return array


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def traces(draw, clusters: int = 16):
    """Random single-flit request traces, as ``("events", ...)`` specs."""
    events = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=350),
                st.integers(min_value=0, max_value=clusters - 1),
                st.integers(min_value=0, max_value=clusters),
                st.sampled_from(["cpu", "gpu"]),
            ),
            max_size=60,
        )
    )
    return ("events", tuple(events))


@st.composite
def fault_schedules(draw, routers: int = 17, min_start: int = 0):
    """Small fault schedules with spans starting in
    ``[min_start, min_start + 300]``."""
    targets = st.one_of(
        st.none(), st.integers(min_value=0, max_value=routers - 1)
    )

    def span():
        start = draw(
            st.integers(min_value=min_start, max_value=min_start + 300)
        )
        end = draw(
            st.one_of(
                st.none(),
                st.integers(min_value=start + 1, max_value=start + 500),
            )
        )
        return start, end

    wavelength_faults = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        start, end = span()
        wavelength_faults.append(
            WavelengthFault(
                wavelengths=draw(st.integers(min_value=1, max_value=56)),
                router=draw(targets),
                start=start,
                end=end,
            )
        )
    droop_faults = []
    for _ in range(draw(st.integers(min_value=0, max_value=1))):
        start, end = span()
        droop_faults.append(
            LaserDroopFault(
                max_state=draw(st.sampled_from([8, 16, 32, 48])),
                router=draw(targets),
                start=start,
                end=end,
            )
        )
    bit_error_faults = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        start, end = span()
        bit_error_faults.append(
            BitErrorFault(
                rate=draw(
                    st.floats(
                        min_value=0.0,
                        max_value=0.8,
                        allow_nan=False,
                        allow_infinity=False,
                    )
                ),
                router=draw(targets),
                start=start,
                end=end,
            )
        )
    return FaultSchedule(
        wavelength_faults=tuple(wavelength_faults),
        droop_faults=tuple(droop_faults),
        bit_error_faults=tuple(bit_error_faults),
        seed=draw(st.integers(min_value=0, max_value=2**31)),
    )


@st.composite
def run_descriptions(draw) -> Run:
    """A whole run: workload, policy, allocator, signaling, inference
    format, drift action, faults, responder and network shape."""
    clusters = draw(st.sampled_from([16, 4, 9]))
    durations = st.sampled_from([100, 400])
    seeds = st.integers(min_value=0, max_value=2**16)
    trace = draw(
        st.one_of(
            traces(clusters),
            st.tuples(
                st.just("pair"),
                st.sampled_from(sorted(CPU_BENCHMARKS)),
                st.sampled_from(sorted(GPU_BENCHMARKS)),
                durations,
                seeds,
            ),
            st.tuples(
                st.just("uniform"),
                st.sampled_from(["cpu", "gpu"]),
                st.sampled_from([0.05, 0.1, 0.4]),
                durations,
                seeds,
            ),
            st.tuples(
                st.just("collective"),
                st.sampled_from(COLLECTIVE_ALGORITHMS),
                durations,
                seeds,
            ),
        )
    )
    # The ML policy carries the model, inference-format and drift
    # draws, so it takes about half of the examples.
    policy = draw(st.sampled_from(POLICIES) | st.just("ml"))
    model = quantization = drift_action = None
    if policy == "ml":
        model = draw(st.sampled_from(["toy", "literal", "drifting"]))
        quantization = draw(st.sampled_from([None, "q4.12", "q2.14"]))
        drift_action = draw(
            st.sampled_from([None, "flag", "fallback", "retrain"])
        )
    return Run(
        trace=trace,
        policy=policy,
        allocator=draw(st.sampled_from(["dynamic", "fcfs"])),
        seed=draw(seeds),
        model=model,
        faults=draw(st.none() | fault_schedules(routers=clusters + 1)),
        # Default first: hypothesis shrinks toward the head of a list.
        responder=draw(st.sampled_from((None,) + ZERO_LATENCY)),
        l3_links=draw(st.sampled_from([8, 1])),
        clusters=clusters,
        warmup=draw(st.sampled_from([0, 50])),
        # The run lengths, windows and retry budgets of the hand-written
        # properties this one replaced, plus a one-retry budget.
        measure=draw(st.sampled_from([400, 800, 1_000, 1_200])),
        window=draw(st.sampled_from([100, 200])),
        stagger=draw(st.sampled_from([None, 0])),
        turn_on_ns=draw(st.sampled_from([None, 40.0])),
        signaling=draw(st.sampled_from(["nrz", "pam4"])),
        quantization=quantization,
        pools=draw(st.sampled_from([None, (48, 40)])),
        retry=draw(
            st.sampled_from([None, (4, 2, 4), (10_000, 2, 4), (1, 8, 16)])
        ),
        drift_action=drift_action,
    )
