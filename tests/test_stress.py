"""Stress and failure-injection tests: degraded and adversarial modes.

These exercise the regimes the paper's controllers must survive:
links pinned at the lowest power state, all-to-one hotspots at
saturation, laser stabilization storms, and buffer exhaustion.  The
invariants: no crash, no packet loss (conservation), controllers
recover.
"""

from repro.config import (
    PearlConfig,
    PhotonicConfig,
    PowerScalingConfig,
    SimulationConfig,
)
from repro.noc.network import PearlNetwork
from repro.noc.router import PowerPolicyKind
from repro.noc.packet import CoreType
from repro.traffic.synthetic import hotspot_trace, uniform_random_trace

from .oracle import check_laws


def _config(measure=2_000, warmup=0, window=200, turn_on_ns=2.0):
    return PearlConfig(
        photonic=PhotonicConfig(laser_turn_on_ns=turn_on_ns),
        power_scaling=PowerScalingConfig(reservation_window=window),
        simulation=SimulationConfig(
            warmup_cycles=warmup, measure_cycles=measure
        ),
    )


class TestDegradedLink:
    def test_pinned_at_lowest_state_still_delivers(self):
        """A network stuck at 8 WL is slow but correct."""
        trace = uniform_random_trace(rate=0.02, duration=2_000, seed=1)
        network = PearlNetwork(_config(measure=2_500), static_state=8)
        result = network.run(trace)
        assert result.stats.packets_delivered > 0
        check_laws(network, result)

    def test_slow_laser_storm(self):
        """32 ns turn-on with a tiny window forces constant stalls."""
        trace = uniform_random_trace(rate=0.05, duration=2_000, seed=2)
        network = PearlNetwork(
            _config(measure=2_500, window=100, turn_on_ns=32.0),
            power_policy=PowerPolicyKind.REACTIVE,
        )
        result = network.run(trace)
        assert result.laser_stall_cycles > 0
        assert result.stats.packets_delivered > 0
        check_laws(network, result)


class TestHotspot:
    def test_all_to_one_saturation_conserves_packets(self):
        trace = hotspot_trace(
            hotspot_router=0, rate=0.3, hotspot_fraction=0.9, duration=2_000
        )
        network = PearlNetwork(_config(measure=2_500))
        result = network.run(trace)
        check_laws(network, result)

    def test_hotspot_under_power_scaling(self):
        trace = hotspot_trace(
            hotspot_router=3, rate=0.2, hotspot_fraction=0.8, duration=2_000
        )
        network = PearlNetwork(
            _config(measure=2_500), power_policy=PowerPolicyKind.REACTIVE
        )
        result = network.run(trace)
        check_laws(network, result)


class TestOverload:
    def test_extreme_injection_backpressures_not_drops(self):
        """At 0.9 packets/cycle/router everything backs up but nothing
        is lost."""
        trace = uniform_random_trace(rate=0.9, duration=800, seed=3)
        network = PearlNetwork(_config(measure=1_000))
        result = network.run(trace)
        assert network.injection_backlog_size > 0
        check_laws(network, result)

    def test_random_policy_under_load(self):
        trace = uniform_random_trace(rate=0.2, duration=1_500, seed=4)
        network = PearlNetwork(
            _config(measure=1_800), power_policy=PowerPolicyKind.RANDOM
        )
        result = network.run(trace)
        check_laws(network, result)

    def test_gpu_only_flood_cannot_wedge_cpu_queue(self):
        """With zero CPU traffic the GPU takes the whole link and the
        CPU pools stay empty (Algorithm 1 step 3b)."""
        trace = uniform_random_trace(
            CoreType.GPU, rate=0.4, duration=1_500, seed=5
        )
        network = PearlNetwork(_config(measure=1_800))
        network.run(trace)
        assert all(r.buffers.cpu.is_empty for r in network.routers)


class TestRecovery:
    def test_scaler_recovers_after_burst(self):
        """After a heavy burst ends, the reactive scaler returns to the
        low-power states."""
        burst = uniform_random_trace(rate=0.3, duration=1_000, seed=6)
        network = PearlNetwork(
            _config(measure=6_000, window=200),
            power_policy=PowerPolicyKind.REACTIVE,
        )
        network.run(burst)
        # Long quiet tail: every router should end at the lowest state.
        assert all(r.laser.state == 8 for r in network.routers)
