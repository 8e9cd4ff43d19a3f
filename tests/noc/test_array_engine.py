"""Array-engine equivalence: the struct-of-arrays core is bit-identical.

The array engine (``PearlNetwork.run(trace, engine="array")``) keeps
router state in numpy arrays and Python-list shadows and replaces the
per-router scalar calls with one vectorized step, and freezes each
closing window straight from its own counters and occupancy integrals
into the close path both engines share.  None of that may change a
single bit of the result.  These tests run the same workloads through the
array engine and the reference (cycle-by-cycle) oracle across every
power policy, both bandwidth allocators, both L3 link-bank widths,
several seeds, a full fault schedule and the Qm.n quantized inference
path, and require byte-equal statistics, residencies, ML prediction
streams and backlog state.  Hypothesis drives the deeper properties:
whole runs over random bursty traces (so the idle skipping in
``ArrayCore._advance`` sees arbitrary quiet spans) agree with the
oracle, stepping the array core from an *arbitrary mid-window scalar
state* matches scalar stepping cycle-for-cycle, and the array <->
object state round-trip is the identity.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    ArchitectureConfig,
    MLConfig,
    PearlConfig,
    PhotonicConfig,
    PowerScalingConfig,
    SimulationConfig,
)
from repro.faults import (
    BitErrorFault,
    FaultSchedule,
    LaserDroopFault,
    WavelengthFault,
)
from repro.ml.features import NUM_FEATURES
from repro.ml.ridge import RidgeRegression
from repro.noc.array_core import ArrayCore
from repro.noc.network import PearlNetwork
from repro.noc.packet import CacheLevel, CoreType, Packet, PacketClass
from repro.noc.router import PowerPolicyKind
from repro.traffic.benchmarks import CPU_BENCHMARKS, GPU_BENCHMARKS
from repro.traffic.synthetic import generate_pair_trace, uniform_random_trace
from repro.traffic.trace import InjectionEvent, Trace, TraceCursor

ALL_ENGINES = ("reference", "array")


def _config(measure=1_500, warmup=100, window=200, stagger=None):
    scaling = (
        PowerScalingConfig(reservation_window=window)
        if stagger is None
        else PowerScalingConfig(
            reservation_window=window, router_stagger_cycles=stagger
        )
    )
    return PearlConfig(
        simulation=SimulationConfig(
            warmup_cycles=warmup, measure_cycles=measure
        ),
        power_scaling=scaling,
        ml=MLConfig(reservation_window=window),
    )


def _fault_schedule():
    return FaultSchedule(
        wavelength_faults=(
            WavelengthFault(wavelengths=24, router=3, start=300, end=900),
        ),
        droop_faults=(LaserDroopFault(max_state=32, router=7, start=500),),
        bit_error_faults=(BitErrorFault(rate=0.02, start=250, end=1000),),
    )


@pytest.fixture(scope="module")
def toy_model():
    """A fitted ridge model (arbitrary weights; determinism is what counts)."""
    rng = np.random.default_rng(0)
    model = RidgeRegression(lam=1.0)
    model.fit(rng.normal(size=(64, NUM_FEATURES)), rng.normal(size=64))
    return model


def _canonical(network, result):
    """Everything the engines must reproduce byte-for-byte."""
    return {
        "stats": result.stats.to_dict(),
        "residency": result.state_residency,
        "mean_laser_power_w": result.mean_laser_power_w,
        "laser_stall_cycles": result.laser_stall_cycles,
        "ml_predictions": result.ml_predictions,
        "ml_labels": result.ml_labels,
        "sequence": network._sequence,
        "backlog": network.injection_backlog_size,
        "laser_energy": [r.laser.energy_j for r in network.routers],
        "cycles_in_state": [r.laser.cycles_in_state for r in network.routers],
        "reservations": [r.reservations_sent for r in network.routers],
        "crc_errors": result.stats.crc_errors,
        "retransmissions": result.stats.retransmissions,
    }


def _run_engines(
    config,
    trace,
    policy,
    model=None,
    dyn=True,
    seed=3,
    faults=None,
    links=8,
):
    out = {}
    for engine in ALL_ENGINES:
        network = PearlNetwork(
            config=config,
            power_policy=policy,
            use_dynamic_bandwidth=dyn,
            ml_model=model if policy is PowerPolicyKind.ML else None,
            l3_parallel_links=links,
            seed=seed,
            faults=faults,
        )
        out[engine] = _canonical(network, network.run(trace, engine=engine))
    return out


def _assert_all_equal(out):
    engines = list(out)
    first = out[engines[0]]
    for engine in engines[1:]:
        assert out[engine] == first, f"{engine} diverged from {engines[0]}"


def _idle_heavy_trace(config, seed=5):
    return uniform_random_trace(
        CoreType.CPU,
        rate=0.05,
        architecture=config.architecture,
        duration=config.simulation.total_cycles // 4,
        seed=seed,
    )


def _pair_trace(config, seed=11):
    return generate_pair_trace(
        CPU_BENCHMARKS["fluidanimate"],
        GPU_BENCHMARKS["dct"],
        config.architecture,
        config.simulation.total_cycles,
        seed,
    )


class TestArrayEngineEquivalence:
    @pytest.mark.parametrize("policy", list(PowerPolicyKind))
    @pytest.mark.parametrize("dyn", [True, False])
    def test_policy_allocator_matrix(self, policy, dyn, toy_model):
        """Every policy x both allocators on an idle-heavy trace."""
        config = _config()
        trace = _idle_heavy_trace(config)
        out = _run_engines(config, trace, policy, toy_model, dyn=dyn)
        _assert_all_equal(out)

    @pytest.mark.parametrize("seed", [1, 2, 9])
    @pytest.mark.parametrize(
        "policy", [PowerPolicyKind.REACTIVE, PowerPolicyKind.ML]
    )
    def test_seeds_on_benchmark_pair(self, seed, policy, toy_model):
        """Closed-loop benchmark-pair traffic across seeds; the trace
        stops halfway, so the run ends in an idle tail."""
        config = _config(measure=1_200)
        trace = generate_pair_trace(
            CPU_BENCHMARKS["fluidanimate"],
            GPU_BENCHMARKS["dct"],
            config.architecture,
            config.simulation.total_cycles // 2,
            seed=seed,
        )
        out = _run_engines(config, trace, policy, toy_model, seed=seed)
        _assert_all_equal(out)

    @pytest.mark.parametrize("links", [1, 8])
    def test_l3_parallel_link_banks(self, links):
        """The banked L3 router's engine array, one link and eight."""
        config = _config()
        trace = _idle_heavy_trace(config, seed=11)
        out = _run_engines(
            config, trace, PowerPolicyKind.REACTIVE, links=links
        )
        _assert_all_equal(out)

    @pytest.mark.parametrize(
        "policy",
        [
            PowerPolicyKind.ML,
            PowerPolicyKind.REACTIVE,
            PowerPolicyKind.STATIC,
            PowerPolicyKind.PROTEUS,
            PowerPolicyKind.D3NOC,
        ],
    )
    @pytest.mark.parametrize("dyn", [True, False])
    def test_faulted(self, policy, dyn, toy_model):
        """Wavelength + droop + bit-error faults on both engines."""
        config = _config()
        out = _run_engines(
            config,
            _pair_trace(config),
            policy,
            toy_model,
            dyn=dyn,
            faults=_fault_schedule(),
        )
        _assert_all_equal(out)
        assert out["array"]["crc_errors"] > 0

    @pytest.mark.parametrize("quantization", ["q4.12", "q2.14"])
    def test_quantized_inference(self, quantization, toy_model):
        """Fixed-point close-group inference agrees across engines."""
        config = _config()
        config = config.replace(ml=replace(config.ml, quantization=quantization))
        out = _run_engines(
            config, _pair_trace(config), PowerPolicyKind.ML, toy_model
        )
        _assert_all_equal(out)

    def test_quantized_faulted(self, toy_model):
        """Quantized inference and a live fault schedule together."""
        config = _config()
        config = config.replace(ml=replace(config.ml, quantization="q4.12"))
        out = _run_engines(
            config,
            _pair_trace(config),
            PowerPolicyKind.ML,
            toy_model,
            faults=_fault_schedule(),
        )
        _assert_all_equal(out)

    def test_batched_boundaries_stagger_zero(self, toy_model):
        """Unstaggered windows: all 17 rows close on the same cycle, so
        each close group's inference is one (17 x 30) @ (30,) matmul,
        grouped identically on both engines."""
        config = _config(stagger=0)
        out = _run_engines(
            config, _pair_trace(config), PowerPolicyKind.ML, toy_model
        )
        _assert_all_equal(out)

    def test_saturated_trace(self):
        """Backlogged injection, full buffers, busy engines every cycle."""
        config = _config(measure=1_000)
        trace = uniform_random_trace(
            CoreType.GPU,
            rate=0.4,
            architecture=config.architecture,
            duration=config.simulation.total_cycles,
            seed=5,
        )
        out = _run_engines(config, trace, PowerPolicyKind.REACTIVE)
        _assert_all_equal(out)

    def test_empty_trace(self):
        """A fully idle run: pure window cadence and laser bookkeeping."""
        config = _config()
        out = _run_engines(
            config, Trace([], name="empty"), PowerPolicyKind.REACTIVE
        )
        _assert_all_equal(out)
        assert out["array"]["stats"]["link_total_cycles"] > 0


class TestCollectionModeIdentity:
    """ML training data is collected on the default (array) engine, so
    the ``(router_id, features, label)`` stream that
    :meth:`PearlNetwork.enable_collection` records must equal the
    oracle's — for both phases of the collection pipeline."""

    def _stream(self, engine, policy, model=None):
        config = _config()
        network = PearlNetwork(
            config=config,
            power_policy=policy,
            ml_model=model,
            allow_8wl=False if policy is PowerPolicyKind.ML else None,
            seed=5,
        )
        rows = []
        network.enable_collection(
            lambda rid, feats, label: rows.append(
                (rid, feats.dtype.str, feats.tobytes(), label)
            )
        )
        network.run(_pair_trace(config, seed=5), engine=engine)
        return rows

    @pytest.mark.parametrize("phase", ["random", "ml-driven"])
    def test_collection_stream_identical(self, phase, toy_model):
        """Phase 1 runs the RANDOM policy; phase 2 drives the ML policy
        with the 8 WL state disabled, as ``collect_pair_dataset`` does."""
        if phase == "random":
            policy, model = PowerPolicyKind.RANDOM, None
        else:
            policy, model = PowerPolicyKind.ML, toy_model
        streams = {
            engine: self._stream(engine, policy, model)
            for engine in ALL_ENGINES
        }
        reference = streams["reference"]
        assert len({rid for rid, *_ in reference}) == 17
        assert streams["array"] == reference


class TestNonPowerOfTwoBuffers:
    """48/40-slot input pools.  At power-of-two capacities every
    per-cycle ``slots / capacity`` is exact, so a sum of fractions and
    an integer slot-cycle integral divided once give the same window
    mean; at 48/40 they do not.  The collected ``(router_id, features,
    label)`` stream and the ML predictions therefore pin that both
    engines freeze windows through one definition."""

    def _run(self, engine, policy, model):
        config = _config()
        config = config.replace(
            dba=replace(config.dba, cpu_buffer_slots=48, gpu_buffer_slots=40)
        )
        network = PearlNetwork(
            config=config,
            power_policy=policy,
            ml_model=model if policy is PowerPolicyKind.ML else None,
            seed=5,
        )
        rows = []
        network.enable_collection(
            lambda rid, feats, label: rows.append(
                (rid, feats.dtype.str, feats.tobytes(), label)
            )
        )
        result = network.run(_pair_trace(config, seed=5), engine=engine)
        return rows, _canonical(network, result)

    @pytest.mark.parametrize(
        "policy",
        [
            PowerPolicyKind.REACTIVE,
            PowerPolicyKind.ADAPTIVE,
            PowerPolicyKind.PROTEUS,
            PowerPolicyKind.D3NOC,
            PowerPolicyKind.ML,
            PowerPolicyKind.RANDOM,
        ],
    )
    def test_engines_agree(self, policy, toy_model):
        reference, array = (
            self._run(engine, policy, toy_model) for engine in ALL_ENGINES
        )
        rows, out = reference
        assert len(rows) == 119
        assert array[0] == rows
        assert array[1] == out


class TestCollectiveWorkloads:
    """Phase-structured collective schedules through both engines.

    The collective compiler emits bursty, barrier-ordered traffic with
    multi-flit packets — a different injection shape from the pair and
    uniform traces above — and the PAM4 rows additionally flip every
    serialization and power constant the engines consume."""

    def _collective(self, signaling="nrz", algorithm="allreduce_ring"):
        from repro.traffic.collectives import generate_collective_trace

        config = _config()
        if signaling != "nrz":
            config = config.replace(
                photonic=replace(config.photonic, signaling=signaling)
            )
        trace = generate_collective_trace(
            algorithm,
            config.architecture,
            duration=config.simulation.total_cycles,
            seed=7,
        )
        return config, trace

    @pytest.mark.parametrize(
        "algorithm",
        [
            "allreduce_ring",
            "halving_doubling",
            "alltoall",
            "parameter_server",
        ],
    )
    @pytest.mark.parametrize("signaling", ["nrz", "pam4"])
    def test_ml_policy_engines_match(self, algorithm, signaling, toy_model):
        config, trace = self._collective(signaling, algorithm)
        out = _run_engines(config, trace, PowerPolicyKind.ML, toy_model)
        _assert_all_equal(out)

    @pytest.mark.parametrize(
        "policy",
        [
            PowerPolicyKind.REACTIVE,
            PowerPolicyKind.PROTEUS,
            PowerPolicyKind.D3NOC,
        ],
    )
    def test_rule_policies_pam4(self, policy, toy_model):
        config, trace = self._collective("pam4", "alltoall")
        out = _run_engines(config, trace, policy, toy_model)
        _assert_all_equal(out)

    def test_faulted_collective(self, toy_model):
        """A fault schedule on top of a PAM4 collective run."""
        config, trace = self._collective("pam4", "halving_doubling")
        out = _run_engines(
            config,
            trace,
            PowerPolicyKind.ML,
            toy_model,
            faults=_fault_schedule(),
        )
        _assert_all_equal(out)
        assert out["array"]["crc_errors"] > 0

    def test_quantized_collective(self, toy_model):
        """q4.12 close-group inference driven by collective traffic."""
        config, trace = self._collective("nrz", "parameter_server")
        config = config.replace(
            ml=replace(config.ml, quantization="q4.12")
        )
        out = _run_engines(config, trace, PowerPolicyKind.ML, toy_model)
        _assert_all_equal(out)


class TestNonDefaultClusterCounts:
    """The array core must size every array from the live network, not
    from the paper's 16-cluster default (regression for hard-coded
    router-count literals)."""

    @pytest.mark.parametrize("clusters", [4, 9])
    def test_array_engine_on_other_cluster_counts(self, clusters):
        config = PearlConfig(
            architecture=ArchitectureConfig(num_clusters=clusters),
            simulation=SimulationConfig(warmup_cycles=100, measure_cycles=800),
        )
        trace = uniform_random_trace(
            CoreType.CPU,
            rate=0.1,
            architecture=config.architecture,
            duration=config.simulation.total_cycles // 2,
            seed=7,
        )
        out = {}
        for engine in ALL_ENGINES:
            network = PearlNetwork(
                config=config, power_policy=PowerPolicyKind.REACTIVE, seed=7
            )
            assert len(network.routers) == clusters + 1
            out[engine] = _canonical(
                network, network.run(trace, engine=engine)
            )
        assert out["reference"] == out["array"]
        delivered = sum(
            c["packets_delivered"]
            for c in out["array"]["stats"]["counters"].values()
        )
        assert delivered > 0


class TestTurnOnSkippedAtRunBoundary:
    """A laser turn-on that completes inside an idle span skipped right
    before the warm-up boundary or the end of the run has no later
    executed cycle to land it, so the boundary itself must land it
    before settling the ledgers (regression: the array core used to
    settle the turn-on span as stall time in the old state, or fail
    with "laser ledger settled backwards" at the next flip).

    Each case idles the network and schedules the upward transition so
    it completes five cycles before the boundary: a RANDOM-policy
    window close, or a static-policy run whose wavelength or droop
    fault clears and releases the clamp.
    """

    WINDOW = 100

    def _case(self, cause, boundary, turn_on_ns):
        w = self.WINDOW
        turn_on = PhotonicConfig(laser_turn_on_ns=turn_on_ns).turn_on_cycles()
        # The other boundary sits one cycle after a window close, where
        # no transition is due, so only ``boundary`` sees a skipped flip.
        if boundary == "warm-up":
            warmup, total = 2 * w + turn_on + 5, 5 * w + 1
            release = 2 * w
        else:
            warmup, total = 2 * w + 1, 5 * w + turn_on + 5
            release = 5 * w
        config = PearlConfig(
            simulation=SimulationConfig(
                warmup_cycles=warmup, measure_cycles=total - warmup
            ),
            power_scaling=PowerScalingConfig(
                reservation_window=w, router_stagger_cycles=0
            ),
            ml=MLConfig(reservation_window=w),
        ).with_turn_on_ns(turn_on_ns)
        if cause == "window-close":
            return config, PowerPolicyKind.RANDOM, None
        if cause == "wavelength-clear":
            faults = FaultSchedule(
                wavelength_faults=(
                    WavelengthFault(wavelengths=40, start=20, end=release),
                )
            )
        else:
            faults = FaultSchedule(
                droop_faults=(
                    LaserDroopFault(max_state=8, start=20, end=release),
                )
            )
        return config, PowerPolicyKind.STATIC, faults

    @pytest.mark.parametrize("turn_on_ns", [2.0, 40.0])
    @pytest.mark.parametrize("boundary", ["warm-up", "end-of-run"])
    @pytest.mark.parametrize(
        "cause", ["window-close", "wavelength-clear", "droop-clear"]
    )
    def test_turn_on_completing_in_skipped_span(
        self, cause, boundary, turn_on_ns
    ):
        config, policy, faults = self._case(cause, boundary, turn_on_ns)
        trace = Trace([], name="empty")

        def network():
            return PearlNetwork(
                config=config, power_policy=policy, seed=3, faults=faults
            )

        array_net = network()
        core = ArrayCore(array_net)
        due = {}

        def probe(name, settle):
            def wrapped(cycle):
                due[name] = core._next_flip <= cycle
                settle(cycle)

            return wrapped

        core._begin_measurement = probe("warm-up", core._begin_measurement)
        core._finish = probe("end-of-run", core._finish)
        array_out = _canonical(array_net, core.run(trace))
        # The scenario really leaves a landed-but-unapplied turn-on at
        # the boundary under test (and only there).
        assert due == {
            "warm-up": boundary == "warm-up",
            "end-of-run": boundary == "end-of-run",
        }
        reference_net = network()
        reference_out = _canonical(
            reference_net, reference_net.run(trace, engine="reference")
        )
        assert array_out == reference_out


# -- mid-window state properties ---------------------------------------------


def _packet_key(p: Packet):
    # packet_id is deliberately excluded: the twin networks interleave
    # draws from the global id counter, so ids differ even for
    # identical histories.  Position + every other field pins identity.
    return (
        p.source,
        p.destination,
        p.core_type.value,
        p.packet_class.value,
        p.cache_level.value,
        p.size_flits,
        p.created_cycle,
        p.injected_cycle,
        p.received_cycle,
        p.retries,
    )


def _heap_key(entries):
    out = []
    for entry in sorted(entries, key=lambda t: (t[0], t[1])):
        parts = []
        for item in entry:
            if isinstance(item, Packet):
                parts.append(_packet_key(item))
            elif hasattr(item, "packet"):  # Transmission
                parts.append(
                    (
                        _packet_key(item.packet),
                        item.arrival_cycle,
                        item.source_router,
                    )
                )
            else:
                parts.append(item)
        out.append(tuple(parts))
    return out


def _mid_state(net):
    """The complete observable mid-run state of a network."""
    state = {
        "sequence": net._sequence,
        "rng": net._rng.bit_generator.state,
        "responses": _heap_key(net._responses),
        "in_flight": _heap_key(net._in_flight),
        "retransmits": _heap_key(net._retransmits),
        "inj_backlog": [
            [_packet_key(p) for p in backlog]
            for backlog in net._injection_backlog
        ],
        "retry_backlog": [
            [_packet_key(p) for p in backlog]
            for backlog in net._retransmit_backlog
        ],
        "mem_free_at": list(net.memory._free_at),
        "mem_busy": net.memory.stats.busy_cycles,
        "mem_requests": net.memory.stats.requests,
    }
    stats = net.stats
    state["stats"] = (
        {ct.value: vars(c).copy() for ct, c in stats.counters.items()},
        stats.local_packets_delivered,
        stats.network_flits_delivered,
        stats.link_busy_cycles,
        stats.link_total_cycles,
        list(stats._latencies),
        stats.crc_errors,
        stats.retransmissions,
        stats.packets_dropped,
        stats.fault_clamp_events,
    )
    rows = []
    for router in net.routers:
        fc = router.features
        bank = router.laser
        rows.append(
            {
                "cpu_q": [_packet_key(p) for p in router.buffers.cpu._queue],
                "gpu_q": [_packet_key(p) for p in router.buffers.gpu._queue],
                "cpu_occ": router.buffers.cpu._occupied_slots,
                "gpu_occ": router.buffers.gpu._occupied_slots,
                "ejc_q": [_packet_key(p) for p in router._ejection_cpu._queue],
                "ejg_q": [_packet_key(p) for p in router._ejection_gpu._queue],
                "ejc_occ": router._ejection_cpu._occupied_slots,
                "ejg_occ": router._ejection_gpu._occupied_slots,
                "ej_backlog": [
                    _packet_key(p) for p in router._ejection_backlog
                ],
                "feat_sums": list(fc._occupancy_slot_cycles),
                "feat_samples": fc._occupancy_samples,
                "feat_link": (fc._link_busy_cycles, fc._link_samples),
                "feat_counts": (
                    fc._sent_to_core,
                    fc._incoming_other,
                    fc._incoming_cores,
                    fc._network_injected,
                    fc._requests_sent,
                    fc._responses_sent,
                    fc._requests_received,
                    fc._responses_received,
                    dict(fc._requests_by_level),
                    dict(fc._responses_by_level),
                ),
                "laser": (
                    bank._state,
                    bank._pending_state,
                    bank._stabilize_remaining,
                    dict(bank.cycles_in_state),
                    dict(bank._cycles_at_power),
                    bank.stall_cycles,
                ),
                "engines": (
                    [e.busy_until for e in router._engines[CoreType.CPU]],
                    [e.busy_until for e in router._engines[CoreType.GPU]],
                    router._local_engine.busy_until,
                ),
                "reservations": router.reservations_sent,
                "dba_pin": router.dba.pinned_label,
                "d3noc": (
                    (
                        router.d3noc.demand_ewma,
                        list(router.d3noc.decisions),
                        list(router.d3noc.split_history),
                    )
                    if router.d3noc is not None
                    else None
                ),
                "reactive": (
                    list(router.reactive.decisions)
                    if router.reactive is not None
                    else None
                ),
                "scaler": (
                    (
                        list(router.ml_scaler.predictions),
                        list(router.ml_scaler.decisions),
                        list(router.ml_scaler.labels),
                        router.ml_scaler._pending_label,
                    )
                    if router.ml_scaler is not None
                    else None
                ),
            }
        )
    state["routers"] = rows
    return state


def _twin_networks(policy, seed, model=None):
    config = _config(measure=1_200, warmup=0, window=200)
    kwargs = dict(
        config=config,
        power_policy=policy,
        use_dynamic_bandwidth=True,
        ml_model=model if policy is PowerPolicyKind.ML else None,
        seed=seed,
    )
    return PearlNetwork(**kwargs), PearlNetwork(**kwargs), config


@st.composite
def traces(draw):
    """Small random request traces over the 17-node PEARL network."""
    n = draw(st.integers(min_value=0, max_value=60))
    events = []
    for _ in range(n):
        source = draw(st.integers(min_value=0, max_value=15))
        destination = draw(st.integers(min_value=0, max_value=16))
        core = draw(st.sampled_from([CoreType.CPU, CoreType.GPU]))
        if source == destination:
            level = (
                CacheLevel.CPU_L1_DATA
                if core is CoreType.CPU
                else CacheLevel.GPU_L1
            )
        else:
            level = (
                CacheLevel.CPU_L2_DOWN
                if core is CoreType.CPU
                else CacheLevel.GPU_L2_DOWN
            )
        events.append(
            InjectionEvent(
                cycle=draw(st.integers(min_value=0, max_value=350)),
                source=source,
                destination=destination,
                core_type=core,
                packet_class=PacketClass.REQUEST,
                cache_level=level,
            )
        )
    return Trace(events, name="random")


class TestRandomTraceProperty:
    @given(
        trace=traces(),
        policy=st.sampled_from(
            [
                PowerPolicyKind.STATIC,
                PowerPolicyKind.REACTIVE,
                PowerPolicyKind.ADAPTIVE,
                PowerPolicyKind.RANDOM,
            ]
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_random_traces_bit_identical(self, trace, policy, seed):
        """Whole runs over arbitrary bursty traces: the array core's
        idle skipping (random quiet spans, then a long idle tail)
        agrees with the oracle byte-for-byte."""
        config = _config(measure=1_000, warmup=50)
        out = _run_engines(config, trace, policy, seed=seed)
        _assert_all_equal(out)


class TestMidWindowStateProperties:
    @given(
        trace=traces(),
        policy=st.sampled_from(
            [
                PowerPolicyKind.STATIC,
                PowerPolicyKind.REACTIVE,
                PowerPolicyKind.ADAPTIVE,
                PowerPolicyKind.RANDOM,
                PowerPolicyKind.PROTEUS,
                PowerPolicyKind.D3NOC,
            ]
        ),
        seed=st.integers(min_value=0, max_value=2**16),
        split=st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=10, deadline=None)
    def test_vectorized_step_equals_scalar_step(
        self, trace, policy, seed, split
    ):
        """Array stepping from an arbitrary mid-window scalar state is
        cycle-for-cycle identical to continuing with scalar steps."""
        scalar, vector, config = _twin_networks(policy, seed)
        cur_s, cur_v = TraceCursor(trace), TraceCursor(trace)
        for cycle in range(split):
            scalar.step(cycle, cur_s)
            vector.step(cycle, cur_v)
        core = ArrayCore(vector, start_cycle=split)
        end = split + 300
        for cycle in range(split, end):
            scalar.step(cycle, cur_s)
            core.step(cycle, cur_v)
        core.sync_to_objects(end)
        assert _mid_state(scalar) == _mid_state(vector)

    @given(
        trace=traces(),
        seed=st.integers(min_value=0, max_value=2**16),
        split=st.integers(min_value=1, max_value=450),
    )
    @settings(max_examples=8, deadline=None)
    def test_array_object_round_trip_identity(self, trace, seed, split):
        """ArrayCore(net) followed by an immediate sync leaves the
        object state exactly as it was, and scalar stepping afterwards
        stays bit-identical to a network the array core never touched."""
        scalar, vector, config = _twin_networks(
            PowerPolicyKind.REACTIVE, seed
        )
        cur_s, cur_v = TraceCursor(trace), TraceCursor(trace)
        for cycle in range(split):
            scalar.step(cycle, cur_s)
            vector.step(cycle, cur_v)
        ArrayCore(vector, start_cycle=split).sync_to_objects(split)
        assert _mid_state(scalar) == _mid_state(vector)
        for cycle in range(split, split + 120):
            scalar.step(cycle, cur_s)
            vector.step(cycle, cur_v)
        assert _mid_state(scalar) == _mid_state(vector)

    def test_mid_window_ml_policy(self, toy_model):
        """Directed (non-hypothesis) mid-stream check on the ML policy,
        including a window close while the array core is driving."""
        trace_config = _config(measure=1_200, warmup=0)
        trace = _pair_trace(trace_config, seed=4)
        scalar, vector, config = _twin_networks(
            PowerPolicyKind.ML, seed=4, model=toy_model
        )
        cur_s, cur_v = TraceCursor(trace), TraceCursor(trace)
        split = 137  # mid-window for every staggered router
        for cycle in range(split):
            scalar.step(cycle, cur_s)
            vector.step(cycle, cur_v)
        core = ArrayCore(vector, start_cycle=split)
        end = split + 463  # crosses several window boundaries
        for cycle in range(split, end):
            scalar.step(cycle, cur_s)
            core.step(cycle, cur_v)
        core.sync_to_objects(end)
        assert _mid_state(scalar) == _mid_state(vector)
