"""End-to-end integration tests: paper-shape invariants at small scale."""

from dataclasses import replace

import pytest

from repro.config import PearlConfig, SimulationConfig
from repro.noc.cmesh import CMeshNetwork
from repro.noc.network import PearlNetwork
from repro.noc.router import PowerPolicyKind
from repro.power.energy import energy_per_bit_pj
from repro.traffic.benchmarks import CPU_BENCHMARKS, GPU_BENCHMARKS
from repro.traffic.synthetic import generate_pair_trace


@pytest.fixture(scope="module")
def config():
    return PearlConfig(
        simulation=SimulationConfig(warmup_cycles=200, measure_cycles=3_000)
    ).with_reservation_window(250)


@pytest.fixture(scope="module")
def trace(config):
    return generate_pair_trace(
        CPU_BENCHMARKS["x264"],
        GPU_BENCHMARKS["reduction"],
        config.architecture,
        config.simulation.total_cycles,
        seed=13,
    )


@pytest.fixture(scope="module")
def baseline(config, trace):
    return PearlNetwork(config, power_policy=PowerPolicyKind.STATIC).run(trace)


class TestPaperShapeInvariants:
    def test_pearl_dyn_beats_cmesh_throughput(self, config, trace, baseline):
        """Headline claim 1: PEARL-Dyn outperforms the CMESH baseline."""
        cmesh = CMeshNetwork(simulation=config.simulation).run(trace)
        assert baseline.throughput() > cmesh.throughput_flits_per_cycle()

    def test_pearl_dyn_cheaper_per_bit_than_cmesh_constrained(
        self, config, trace
    ):
        """Fig. 5 shape at 16 WL / divisor-8 CMESH."""
        pearl = PearlNetwork(config, static_state=16).run(trace)
        cmesh = CMeshNetwork(simulation=config.simulation, bandwidth_divisor=8).run(
            trace
        )
        assert energy_per_bit_pj(pearl.stats) < energy_per_bit_pj(cmesh)

    def test_reactive_scaling_saves_power(self, config, trace, baseline):
        """Headline claim 2, savings side."""
        scaled = PearlNetwork(
            config, power_policy=PowerPolicyKind.REACTIVE
        ).run(trace)
        savings = 1 - scaled.mean_laser_power_w / baseline.mean_laser_power_w
        assert savings > 0.15

    def test_reactive_throughput_loss_bounded(self, config, trace, baseline):
        """Headline claim 2, loss side (paper: 0-14%)."""
        scaled = PearlNetwork(
            config, power_policy=PowerPolicyKind.REACTIVE
        ).run(trace)
        loss = 1 - scaled.throughput() / baseline.throughput()
        assert loss < 0.25

    def test_static_states_order_throughput(self, config, trace):
        """Fewer wavelengths can never help throughput."""
        thr = {
            wl: PearlNetwork(config, static_state=wl).run(trace).throughput()
            for wl in (64, 16)
        }
        assert thr[64] >= thr[16]

    def test_static_states_order_power(self, config, trace):
        power = {
            wl: PearlNetwork(config, static_state=wl)
            .run(trace)
            .mean_laser_power_w
            for wl in (64, 16)
        }
        assert power[64] > power[16]

    def test_slow_laser_hurts_throughput_not_power(self, config, trace):
        """Fig. 11 shape: turn-on time costs throughput, not power."""
        fast_cfg = config.with_turn_on_ns(2.0)
        slow_cfg = config.with_turn_on_ns(32.0)
        fast = PearlNetwork(
            fast_cfg, power_policy=PowerPolicyKind.REACTIVE
        ).run(trace)
        slow = PearlNetwork(
            slow_cfg, power_policy=PowerPolicyKind.REACTIVE
        ).run(trace)
        assert slow.laser_stall_cycles > fast.laser_stall_cycles
        # Power varies little (paper: <1%; allow slack at tiny scale).
        assert slow.mean_laser_power_w == pytest.approx(
            fast.mean_laser_power_w, rel=0.15
        )

    @pytest.mark.slow
    def test_ml_policy_end_to_end(self, config, trace, tiny_trained_model):
        """A trained model drives the network and saves power."""
        baseline = PearlNetwork(config).run(trace)
        ml_config = config.with_reservation_window(200)
        ml = PearlNetwork(
            ml_config,
            power_policy=PowerPolicyKind.ML,
            ml_model=tiny_trained_model.model,
        ).run(trace)
        assert ml.mean_laser_power_w < baseline.mean_laser_power_w
        assert ml.throughput() > 0.5 * baseline.throughput()


class TestConservation:
    @pytest.mark.parametrize("engine", PearlNetwork.ENGINES)
    def test_no_packet_loss_at_moderate_load(self, config, trace, engine):
        """Injected == delivered + still inside the network, exactly.

        The run has no warm-up, which would reset ``packets_injected``.
        A packet counts as injected when it enters a router, so the
        injection backlog sits upstream of both sides and is left out.
        """
        simulation = replace(
            config.simulation,
            warmup_cycles=0,
            measure_cycles=config.simulation.total_cycles,
        )
        network = PearlNetwork(replace(config, simulation=simulation))
        result = network.run(trace, engine=engine)
        injected = sum(
            c.packets_injected for c in result.stats.counters.values()
        )
        census = network.pending_packet_census()
        # Packets are still buffered and in flight when the run ends.
        assert census["buffered"] > 0 and census["in_flight"] > 0, census
        assert injected == result.stats.packets_delivered + sum(census.values())

    def test_gpu_does_not_starve_cpu(self, config, trace, baseline):
        """DBA goal iii: CPU packets keep flowing under GPU load."""
        from repro.noc.packet import CoreType

        cpu = baseline.stats.counters[CoreType.CPU]
        assert cpu.packets_delivered > 0
        assert cpu.mean_latency < 2_000
