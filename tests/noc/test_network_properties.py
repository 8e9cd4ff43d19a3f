"""Property-based invariants of the PEARL network simulator."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    PearlConfig,
    PowerScalingConfig,
    SimulationConfig,
)
from repro.noc.network import PearlNetwork
from repro.noc.packet import CacheLevel, CoreType, PacketClass
from repro.noc.router import PowerPolicyKind
from repro.traffic.trace import InjectionEvent, Trace


def _config(cycles):
    return PearlConfig(
        simulation=SimulationConfig(warmup_cycles=0, measure_cycles=cycles),
        power_scaling=PowerScalingConfig(reservation_window=100),
    )


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
                cycle=draw(st.integers(min_value=0, max_value=300)),
                source=source,
                destination=destination,
                core_type=core,
                packet_class=PacketClass.REQUEST,
                cache_level=level,
            )
        )
    return Trace(events, name="random")


class TestNetworkInvariants:
    @given(trace=traces(), policy=st.sampled_from(
        [PowerPolicyKind.STATIC, PowerPolicyKind.REACTIVE, PowerPolicyKind.RANDOM]
    ))
    @settings(max_examples=15, deadline=None)
    def test_no_overdelivery_and_latency_positive(self, trace, policy):
        """Delivered <= offered (requests + responses); latencies > 0."""
        network = PearlNetwork(_config(1_200), power_policy=policy)
        result = network.run(trace)
        stats = result.stats
        injected = sum(c.packets_injected for c in stats.counters.values())
        assert stats.packets_delivered <= injected
        if stats.packets_delivered:
            assert stats.mean_latency() > 0

    @given(trace=traces())
    @settings(max_examples=10, deadline=None)
    def test_energy_non_negative(self, trace):
        stats = PearlNetwork(_config(800)).run(trace).stats
        assert stats.laser_energy_j >= 0
        assert stats.trimming_energy_j >= 0
        assert stats.total_energy_j() >= 0

    @given(trace=traces())
    @settings(max_examples=10, deadline=None)
    def test_residency_is_distribution(self, trace):
        result = PearlNetwork(
            _config(800), power_policy=PowerPolicyKind.REACTIVE
        ).run(trace)
        total = sum(result.state_residency.values())
        assert abs(total - 1.0) < 1e-9
        assert all(0.0 <= f <= 1.0 for f in result.state_residency.values())

    @given(trace=traces())
    @settings(max_examples=8, deadline=None)
    def test_long_enough_run_drains_everything(self, trace):
        """With a quiet tail, every request and its response complete."""
        network = PearlNetwork(_config(4_000))
        result = network.run(trace)
        stats = result.stats
        injected = sum(c.packets_injected for c in stats.counters.values())
        assert stats.packets_delivered == injected
        assert network.pending_packet_census()["in_flight"] == 0
        assert network.injection_backlog_size == 0
