"""Tests for repro.noc.network — the closed-loop PEARL simulator."""

from dataclasses import replace

import pytest

from repro.config import PearlConfig, SimulationConfig
from repro.noc.network import PearlNetwork, ResponderConfig
from repro.noc.packet import CacheLevel, CoreType, PacketClass
from repro.noc.router import PowerPolicyKind
from repro.traffic.synthetic import uniform_random_trace
from repro.traffic.trace import InjectionEvent, Trace


def _config(measure=1_500, warmup=100):
    return PearlConfig(
        simulation=SimulationConfig(warmup_cycles=warmup, measure_cycles=measure)
    )


class TestConstruction:
    def test_seventeen_routers(self):
        network = PearlNetwork(_config())
        assert len(network.routers) == 17
        assert network.routers[16].is_l3
        assert network.routers[16].parallel_links == 8

    def test_cluster_routers_single_link(self):
        network = PearlNetwork(_config())
        assert all(r.parallel_links == 1 for r in network.routers[:16])

    def test_ml_policy_requires_model(self):
        with pytest.raises(ValueError):
            PearlNetwork(_config(), power_policy=PowerPolicyKind.ML)

    def test_unknown_engine_rejected(self):
        network = PearlNetwork(_config(measure=200, warmup=0))
        with pytest.raises(ValueError, match="unknown engine"):
            network.run(Trace([], name="empty"), engine="warp")

    @pytest.mark.parametrize("engine", PearlNetwork.ENGINES)
    def test_run_is_single_use(self, tiny_config, tiny_trace, engine):
        """A second run() would start from the first run's queues,
        heaps, RNG and policy state, so it is refused."""
        network = PearlNetwork(
            tiny_config, power_policy=PowerPolicyKind.REACTIVE, seed=3
        )
        assert network.run(tiny_trace, engine=engine).stats.packets_delivered
        with pytest.raises(RuntimeError, match="single-use"):
            network.run(tiny_trace, engine=engine)


class TestClosedLoop:
    def test_requests_produce_responses(self, tiny_config, tiny_trace):
        network = PearlNetwork(tiny_config)
        result = network.run(tiny_trace)
        stats = result.stats
        # Responses carry 5 flits; delivered flits must exceed requests.
        delivered = stats.packets_delivered
        assert delivered > 0
        assert stats.flits_delivered > delivered

    def test_both_core_types_served(self, tiny_config, tiny_trace):
        result = PearlNetwork(tiny_config).run(tiny_trace)
        assert result.stats.counters[CoreType.CPU].packets_delivered > 0
        assert result.stats.counters[CoreType.GPU].packets_delivered > 0

    def test_deterministic_same_seed(self, tiny_config, tiny_trace):
        a = PearlNetwork(tiny_config, seed=3).run(tiny_trace)
        trace2 = Trace(list(tiny_trace.events), name=tiny_trace.name)
        b = PearlNetwork(tiny_config, seed=3).run(trace2)
        assert a.throughput() == b.throughput()
        assert a.mean_laser_power_w == pytest.approx(b.mean_laser_power_w)

    def test_latency_positive(self, tiny_config, tiny_trace):
        result = PearlNetwork(tiny_config).run(tiny_trace)
        assert result.stats.mean_latency() > 0

    def test_empty_trace_runs_clean(self, tiny_config):
        result = PearlNetwork(tiny_config).run(Trace([]))
        assert result.stats.packets_delivered == 0
        assert result.mean_laser_power_w > 0  # static lasers still burn


class TestPowerAccounting:
    def test_static_64wl_power(self, tiny_config, tiny_trace):
        """16 cluster lasers + 8 L3 bank lasers at 1.16 W each."""
        result = PearlNetwork(tiny_config).run(tiny_trace)
        assert result.mean_laser_power_w == pytest.approx(24 * 1.16, rel=0.01)

    def test_static_16wl_power(self, tiny_config, tiny_trace):
        result = PearlNetwork(tiny_config, static_state=16).run(tiny_trace)
        assert result.mean_laser_power_w == pytest.approx(24 * 0.29, rel=0.01)

    def test_reactive_saves_power(self, tiny_config, tiny_trace):
        base = PearlNetwork(tiny_config).run(tiny_trace)
        trace2 = Trace(list(tiny_trace.events), name=tiny_trace.name)
        scaled = PearlNetwork(
            tiny_config, power_policy=PowerPolicyKind.REACTIVE
        ).run(trace2)
        assert scaled.mean_laser_power_w < base.mean_laser_power_w

    def test_residency_sums_to_one(self, tiny_config, tiny_trace):
        result = PearlNetwork(
            tiny_config, power_policy=PowerPolicyKind.REACTIVE
        ).run(tiny_trace)
        assert sum(result.state_residency.values()) == pytest.approx(1.0)

    def test_static_residency_all_at_state(self, tiny_config, tiny_trace):
        result = PearlNetwork(tiny_config, static_state=32).run(tiny_trace)
        assert result.state_residency[32] == pytest.approx(1.0)

    def test_energy_components_populated(self, tiny_config, tiny_trace):
        stats = PearlNetwork(tiny_config).run(tiny_trace).stats
        assert stats.laser_energy_j > 0
        assert stats.trimming_energy_j > 0
        assert stats.modulation_energy_j > 0
        assert stats.receiver_energy_j > 0
        assert stats.ml_energy_j == 0.0  # no ML policy

    @pytest.mark.slow
    def test_ml_energy_charged(self, tiny_config, tiny_trace, tiny_trained_model):
        stats = (
            PearlNetwork(
                tiny_config,
                power_policy=PowerPolicyKind.ML,
                ml_model=tiny_trained_model.model,
            )
            .run(tiny_trace)
            .stats
        )
        assert stats.ml_energy_j > 0


@pytest.mark.slow
class TestMlPolicy:
    def test_ml_run_produces_history(
        self, tiny_config, tiny_trace, tiny_trained_model
    ):
        result = PearlNetwork(
            tiny_config,
            power_policy=PowerPolicyKind.ML,
            ml_model=tiny_trained_model.model,
        ).run(tiny_trace)
        assert len(result.ml_predictions) > 0
        assert len(result.ml_labels) > 0

    def test_no_8wl_when_disabled(
        self, tiny_config, tiny_trace, tiny_trained_model
    ):
        config = tiny_config.replace(
            ml=replace(tiny_config.ml, reintroduce_8wl=False)
        )
        result = PearlNetwork(
            config,
            power_policy=PowerPolicyKind.ML,
            ml_model=tiny_trained_model.model,
        ).run(tiny_trace)
        assert result.state_residency[8] == 0.0


class TestCollectionMode:
    def test_hook_receives_samples(self, tiny_config, tiny_trace):
        network = PearlNetwork(tiny_config, power_policy=PowerPolicyKind.RANDOM)
        samples = []
        network.enable_collection(
            lambda rid, feats, label: samples.append((rid, label))
        )
        network.run(tiny_trace)
        assert len(samples) > 17  # several windows per router
        router_ids = {rid for rid, _ in samples}
        assert router_ids == set(range(17))


class TestResponderConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResponderConfig(cpu_l3_miss_rate=1.5)
        with pytest.raises(ValueError):
            ResponderConfig(l3_hit_latency=-1)

    def test_miss_rate_controls_memory_traffic(self, tiny_config, tiny_trace):
        never = PearlNetwork(
            tiny_config,
            responder=ResponderConfig(cpu_l3_miss_rate=0.0, gpu_l3_miss_rate=0.0),
        )
        never.run(tiny_trace)
        assert never.memory.stats.requests == 0
        always = PearlNetwork(
            tiny_config,
            responder=ResponderConfig(cpu_l3_miss_rate=1.0, gpu_l3_miss_rate=1.0),
        )
        always.run(tiny_trace)
        assert always.memory.stats.requests > 0


class TestAdaptivePolicy:
    def test_adaptive_runs_end_to_end(self, tiny_config, tiny_trace):
        network = PearlNetwork(
            tiny_config, power_policy=PowerPolicyKind.ADAPTIVE
        )
        result = network.run(tiny_trace)
        assert result.stats.packets_delivered > 0
        # The adaptive scaler actually reconfigures the lasers.
        assert sum(1 for f in result.state_residency.values() if f > 0) >= 2

    def test_adaptive_saves_power_vs_static(self, tiny_config, tiny_trace):
        base = PearlNetwork(tiny_config).run(tiny_trace)
        adaptive = PearlNetwork(
            tiny_config, power_policy=PowerPolicyKind.ADAPTIVE
        ).run(tiny_trace)
        assert adaptive.mean_laser_power_w < base.mean_laser_power_w

    def test_adaptive_scales_thresholds(self, tiny_config, tiny_trace):
        from repro.core.adaptive import AdaptiveReactiveScaler

        network = PearlNetwork(
            tiny_config, power_policy=PowerPolicyKind.ADAPTIVE
        )
        network.run(tiny_trace)
        scalers = [
            r.policy
            for r in network.routers
            if isinstance(r.policy, AdaptiveReactiveScaler)
        ]
        assert len(scalers) == 17
        assert any(s.scale_history for s in scalers)


def _flood(source, n):
    """``n`` one-flit CPU requests from ``source`` to the L3, all at
    cycle 0: more than the 64-slot CPU input pool holds."""
    events = [
        InjectionEvent(
            cycle=0,
            source=source,
            destination=16,
            core_type=CoreType.CPU,
            packet_class=PacketClass.REQUEST,
            cache_level=CacheLevel.CPU_L2_DOWN,
        )
        for _ in range(n)
    ]
    return Trace(events, name="flood")


class TestInjectionBacklogOrdering:
    """Stalled-core injection order, on the reference engine.

    The FIFO check wraps ``router.inject``, which only the reference
    engine calls (the array core inlines injection).
    """

    def test_backlog_preserves_fifo_order(self):
        """Packets stalled at a full input buffer inject oldest-first.

        64 CPU slots fill with the first 64 one-flit requests; the rest
        queue in the network backlog and must enter the buffer in
        creation order as the router drains.
        """
        n = 100  # > cpu_buffer_slots
        network = PearlNetwork(_config(measure=2_000, warmup=0), seed=3)
        network.run(_flood(2, n), engine="reference")
        # Requests plus their closed-loop responses all entered despite
        # the initial overflow, and nothing is left stranded.
        injected = network.stats.counters[CoreType.CPU].packets_injected
        assert injected >= n
        assert network.injection_backlog_size == 0

    def test_backlog_fifo_cycles_monotonic(self):
        """injected_cycle is non-decreasing in packet creation order."""
        packets = []
        network = PearlNetwork(_config(measure=2_000, warmup=0), seed=3)
        original_inject = network.routers[4].inject

        def tracking_inject(packet, cycle):
            packets.append(packet)
            original_inject(packet, cycle)

        network.routers[4].inject = tracking_inject
        network.run(_flood(4, 90), engine="reference")
        assert len(packets) == 90
        cycles = [p.injected_cycle for p in packets]
        assert cycles == sorted(cycles)
        ids = [p.packet_id for p in packets]
        assert ids == sorted(ids)
