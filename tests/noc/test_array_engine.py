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
streams and backlog state.  Hypothesis drives the deeper property:
under every policy, whole runs over random bursty traces (so the idle
skipping in ``ArrayCore._advance`` sees arbitrary quiet spans) agree
with the oracle, and both engines hand the shared close path
(``PearlNetwork._close_windows``) the same frozen rows at every close.
The array core is only ever built at cycle 0 of a fresh network (a
network runs once), so whole runs are the unit of comparison.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    ArchitectureConfig,
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
from repro.noc.network import PearlNetwork, ResponderConfig
from repro.noc.packet import CacheLevel, CoreType, PacketClass
from repro.noc.router import PowerPolicyKind
from repro.traffic.benchmarks import CPU_BENCHMARKS, GPU_BENCHMARKS
from repro.traffic.synthetic import generate_pair_trace, uniform_random_trace
from repro.traffic.trace import InjectionEvent, Trace

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
    responder=None,
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
            responder=responder,
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


class TestZeroLatencyResponder:
    """A zero-latency response is ready in the cycle its request
    drained (the last phase of that cycle), so it must inject on the
    next cycle: pending responses are due when their ready cycle is at
    most the current one, not only when it equals it.  L3 miss rates of
    0 and 1 take every L3 response through the hit path or through the
    memory controllers."""

    @pytest.mark.parametrize("miss_rate", [0.0, 1.0])
    @pytest.mark.parametrize(
        "policy", [PowerPolicyKind.STATIC, PowerPolicyKind.REACTIVE]
    )
    def test_engines_agree(self, miss_rate, policy):
        config = _config()
        responder = ResponderConfig(
            l3_hit_latency=0,
            local_l2_latency=0,
            peer_latency=0,
            cpu_l3_miss_rate=miss_rate,
            gpu_l3_miss_rate=miss_rate,
        )
        out = _run_engines(
            config, _pair_trace(config), policy, responder=responder
        )
        _assert_all_equal(out)
        stats = out["array"]["stats"]
        assert stats["local_packets_delivered"] > 0
        assert stats["network_flits_delivered"] > 0

    def test_faulted(self):
        """Zero latency while CRC retransmits share the sequence."""
        config = _config()
        out = _run_engines(
            config,
            _pair_trace(config),
            PowerPolicyKind.REACTIVE,
            faults=_fault_schedule(),
            responder=ResponderConfig(
                l3_hit_latency=0, local_l2_latency=0, peer_latency=0
            ),
        )
        _assert_all_equal(out)
        assert out["array"]["crc_errors"] > 0


class TestCollectionModeIdentity:
    """ML training data is collected on the default (array) engine, so
    the ``(router_id, features, label)`` stream that
    :meth:`PearlNetwork.enable_collection` records must equal the
    oracle's — for both phases of the collection pipeline."""

    def _stream(self, engine, policy, model=None):
        config = _config()
        if policy is PowerPolicyKind.ML:
            config = config.replace(
                ml=replace(config.ml, reintroduce_8wl=False)
            )
        network = PearlNetwork(
            config=config,
            power_policy=policy,
            ml_model=model,
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
    when it settles the laser banks (regression: the array core used
    to settle the turn-on span as stall time in the old state, or fail
    with a backwards settlement at the next flip).

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
        self, cause, boundary, turn_on_ns, monkeypatch
    ):
        config, policy, faults = self._case(cause, boundary, turn_on_ns)
        trace = Trace([], name="empty")

        def network():
            return PearlNetwork(
                config=config, power_policy=policy, seed=3, faults=faults
            )

        array_net = network()
        due = {}

        def probe(name, settle):
            def wrapped(core, cycle):
                due[name] = core._next_flip <= cycle
                settle(core, cycle)

            return wrapped

        for name, step in (
            ("warm-up", "_begin_measurement"),
            ("end-of-run", "_finish"),
        ):
            monkeypatch.setattr(
                ArrayCore, step, probe(name, getattr(ArrayCore, step))
            )
        array_out = _canonical(array_net, array_net.run(trace, engine="array"))
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


def _recorded_run(engine, config, trace, policy, model, seed):
    """One run plus every :meth:`PearlNetwork._close_windows` call.

    Each close is recorded as its cycle, the closing router ids and
    each frozen ``(label, row, Buf_w mean)`` with the row as bytes.
    """
    network = PearlNetwork(
        config=config,
        power_policy=policy,
        ml_model=model if policy is PowerPolicyKind.ML else None,
        seed=seed,
    )
    closes = []
    close_windows = network._close_windows

    def recording_close_windows(closers, frozen, cycle):
        closes.append(
            (
                cycle,
                [router.router_id for router in closers],
                [
                    (label, row.dtype.str, row.tobytes(), buf_mean)
                    for label, row, buf_mean in frozen
                ],
            )
        )
        close_windows(closers, frozen, cycle)

    network._close_windows = recording_close_windows
    result = network.run(trace, engine=engine)
    return closes, _canonical(network, result)


class TestRandomTraceProperty:
    @given(
        trace=traces(),
        policy=st.sampled_from(list(PowerPolicyKind)),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_traces_bit_identical(self, trace, policy, seed, toy_model):
        """Whole runs over arbitrary bursty traces, under every policy.

        Both engines must hand the shared close path the same frozen
        rows (label, Table III row, Buf_w mean) from the same routers
        at the same cycles, and agree on the result byte-for-byte.  The
        random quiet spans and the long idle tail exercise the array
        core's idle skipping.  Comparing the frozen rows catches a
        divergence in the lazily settled window counters even where the
        result would not show it, as under STATIC, which never reads
        them."""
        config = _config(measure=1_000, warmup=50)
        reference, array = (
            _recorded_run(engine, config, trace, policy, toy_model, seed)
            for engine in ALL_ENGINES
        )
        assert reference[0], "no window closed"
        assert array[0] == reference[0]
        assert array[1] == reference[1]

