"""Tests for repro.noc.router — the PEARL router microarchitecture."""

import numpy as np
import pytest

from repro.config import PearlConfig, PowerScalingConfig, SimulationConfig
from repro.ml.features import NUM_FEATURES
from repro.ml.ridge import RidgeRegression
from repro.noc.packet import CacheLevel, CoreType, make_request, make_response
from repro.noc.router import (
    LOCAL_CROSSBAR_CYCLES,
    PIPELINE_OVERHEAD_CYCLES,
    PearlRouter,
    PowerPolicyKind,
)


def _router(
    router_id=0,
    policy=PowerPolicyKind.STATIC,
    static_state=None,
    dynamic=True,
    window=100,
    ml_model=None,
):
    config = PearlConfig(
        power_scaling=PowerScalingConfig(reservation_window=window)
    )
    return PearlRouter(
        router_id=router_id,
        config=config,
        policy_kind=policy,
        use_dynamic_bandwidth=dynamic,
        static_state=static_state,
        ml_model=ml_model,
    )


def _cpu_req(src=0, dst=16):
    return make_request(src, dst, CoreType.CPU, CacheLevel.CPU_L2_DOWN)


def _gpu_req(src=0, dst=16):
    return make_request(src, dst, CoreType.GPU, CacheLevel.GPU_L2_DOWN)


class TestInjection:
    def test_inject_fills_buffers(self):
        router = _router()
        router.inject(_cpu_req(), cycle=0)
        assert router.buffers.total_packets == 1
        assert router.features.injected_this_window == 1

    def test_can_inject_respects_capacity(self):
        router = _router()
        big = make_response(0, 16, CoreType.CPU, CacheLevel.CPU_L2_DOWN, size_flits=64)
        router.inject(big, cycle=0)
        assert not router.can_inject(_cpu_req())
        assert router.can_inject(_gpu_req())


class TestTransmission:
    def test_remote_packet_transmits(self):
        router = _router()
        router.inject(_cpu_req(), cycle=0)
        started = router.transmit(0)
        assert len(started) == 1
        arrival, _ = started[0]
        # 64 WL, full CPU share (GPU idle): 2 cycles + pipeline overhead.
        assert arrival == 2 + PIPELINE_OVERHEAD_CYCLES

    def test_local_packet_uses_crossbar(self):
        router = _router()
        local = make_request(0, 0, CoreType.CPU, CacheLevel.CPU_L1_DATA)
        router.inject(local, cycle=0)
        [(arrival, packet)] = router.transmit(0)
        assert arrival == LOCAL_CROSSBAR_CYCLES
        assert packet is local

    def test_simultaneous_cpu_gpu_transmission(self):
        """Both core types transmit at once on their shares."""
        router = _router()
        router.inject(_cpu_req(), cycle=0)
        router.inject(_gpu_req(), cycle=0)
        started = router.transmit(0)
        assert len(started) == 2

    def test_engine_busy_blocks_next_packet(self):
        router = _router()
        router.inject(_cpu_req(), cycle=0)
        router.inject(_cpu_req(), cycle=0)
        assert len(router.transmit(0)) == 1
        assert len(router.transmit(1)) == 0

    def test_engine_frees_after_serialization(self):
        router = _router()
        router.inject(_cpu_req(), cycle=0)
        router.inject(_cpu_req(), cycle=0)
        router.transmit(0)
        # CPU/GPU split 100/0 (GPU empty): 2 cycles serialization.
        assert len(router.transmit(2)) == 1

    def test_split_bandwidth_slows_serialization(self):
        """With both types queued, each side gets a fraction."""
        router = _router()
        router.inject(_cpu_req(), cycle=0)
        router.inject(_gpu_req(), cycle=0)
        started = router.transmit(0)
        by_type = {packet.core_type: arrival for arrival, packet in started}
        # CPU 75% of 64 WL: ceil(2/0.75)=3; GPU 25%: ceil(2/0.25)=8.
        assert by_type[CoreType.CPU] == 3 + PIPELINE_OVERHEAD_CYCLES
        assert by_type[CoreType.GPU] == 8 + PIPELINE_OVERHEAD_CYCLES

    def test_fcfs_even_split_always(self):
        router = _router(dynamic=False)
        router.inject(_cpu_req(), cycle=0)
        [(arrival, _)] = router.transmit(0)
        # FCFS: CPU share stays 50% even with GPU idle -> ceil(2/0.5)=4.
        assert arrival == 4 + PIPELINE_OVERHEAD_CYCLES

    def test_low_state_slows_transmission(self):
        router = _router(static_state=16)
        router.inject(_cpu_req(), cycle=0)
        [(arrival, _)] = router.transmit(0)
        assert arrival == 8 + PIPELINE_OVERHEAD_CYCLES

    def test_stabilizing_laser_blocks_transmit(self):
        router = _router(policy=PowerPolicyKind.REACTIVE)
        router.laser.request_state(8)
        router.laser.request_state(64)  # upscale -> dark link
        router.inject(_cpu_req(), cycle=0)
        assert router.transmit(0) == []

    def test_local_traffic_ignores_laser_state(self):
        router = _router(policy=PowerPolicyKind.REACTIVE)
        router.laser.request_state(8)
        router.laser.request_state(64)
        local = make_request(0, 0, CoreType.CPU, CacheLevel.CPU_L1_DATA)
        router.inject(local, cycle=0)
        assert len(router.transmit(0)) == 1


class TestEjection:
    def test_receive_and_drain(self):
        router = _router()
        delivered = []
        packet = make_response(16, 0, CoreType.CPU, CacheLevel.L3)
        router.receive(packet)
        router.drain_ejection(5, lambda p, c: delivered.append((p, c)))
        assert delivered == [(packet, 5)]

    def test_drain_rate_limited(self):
        router = _router()
        delivered = []
        for _ in range(6):
            router.receive(make_response(16, 0, CoreType.CPU, CacheLevel.L3))
        router.drain_ejection(0, lambda p, c: delivered.append(p))
        assert len(delivered) == 2  # EJECTION_DRAIN_PER_CYCLE

    def test_backlog_retried(self):
        router = _router()
        # Overfill the CPU ejection pool (capacity 64 slots, 5 flits each).
        for _ in range(14):
            router.receive(make_response(16, 0, CoreType.CPU, CacheLevel.L3))
        assert router._ejection_backlog
        delivered = []
        for cycle in range(40):
            router.drain_ejection(cycle, lambda p, c: delivered.append(p))
        assert len(delivered) == 14
        assert not router._ejection_backlog


class TestWindowing:
    def test_static_router_still_closes_windows(self):
        """Feature collection needs windows even without scaling."""
        router = _router(policy=PowerPolicyKind.STATIC, window=50)
        assert router.window_boundary(0)
        assert router.window_boundary(50)
        assert not router.window_boundary(25)

    @pytest.mark.parametrize("policy", list(PowerPolicyKind))
    def test_every_policy_closes_on_the_staggered_cadence(self, policy):
        """The router owns the close cadence: the reservation window,
        offset by the per-router stagger (10 cycles by default)."""
        rng = np.random.default_rng(0)
        X = rng.random((50, NUM_FEATURES))
        model = RidgeRegression(lam=0.01).fit(X, X[:, 0])
        router = _router(router_id=3, policy=policy, ml_model=model)
        boundaries = [c for c in range(500) if router.window_boundary(c)]
        assert boundaries == [30, 130, 230, 330, 430]

    def test_reactive_scaler_changes_state(self):
        router = _router(policy=PowerPolicyKind.REACTIVE, window=50)
        for cycle in range(51):
            router.tick_control(cycle)
        # Idle buffers the whole window -> lowest state.
        assert router.laser.state == 8

    def test_random_policy_changes_state_eventually(self):
        router = _router(policy=PowerPolicyKind.RANDOM, window=20)
        seen = set()
        for cycle in range(400):
            router.tick_control(cycle)
            seen.add(router.laser.state)
        assert len(seen) > 1
        assert 8 not in seen  # random collection excludes the low state

    def test_collection_hook_receives_prev_features(self):
        router = _router(policy=PowerPolicyKind.STATIC, window=50)
        samples = []
        router.collection_hook = lambda feats, label: samples.append(
            (feats, label)
        )
        for cycle in range(101):
            if cycle == 10:
                router.inject(_cpu_req(), cycle=cycle)
            router.tick_control(cycle)
        # Boundaries at 0, 50, 100: the hook fires at 50 and 100.
        assert len(samples) == 2
        # The injection at cycle 10 labels the features snapped at 0.
        assert samples[0][1] == 1.0
        assert samples[1][1] == 0.0

    def test_ml_policy_requires_model(self):
        with pytest.raises(ValueError):
            _router(policy=PowerPolicyKind.ML)

    def test_reset_power_stats(self):
        router = _router()
        for cycle in range(10):
            router.tick_control(cycle)
        router.reset_power_stats()
        assert router.laser.total_cycles() == 0
        assert router.laser.energy_j == 0.0


class TestParallelLinks:
    def _l3_router(self, parallel=8):
        config = PearlConfig(
            power_scaling=PowerScalingConfig(reservation_window=100)
        )
        return PearlRouter(
            router_id=config.architecture.l3_router_id,
            config=config,
            policy_kind=PowerPolicyKind.STATIC,
            parallel_links=parallel,
        )

    def test_l3_flag_set(self):
        assert self._l3_router().is_l3

    def test_parallel_engines_transmit_concurrently(self):
        """The banked L3 can start several responses in one cycle."""
        router = self._l3_router(parallel=4)
        for _ in range(6):
            router.inject(
                make_response(16, 0, CoreType.CPU, CacheLevel.L3), cycle=0
            )
        started = router.transmit(0)
        assert len(started) == 4  # one per CPU link slice

    def test_single_link_serialises(self):
        router = _router()
        for _ in range(3):
            router.inject(
                make_response(0, 16, CoreType.CPU, CacheLevel.CPU_L2_DOWN),
                cycle=0,
            )
        assert len(router.transmit(0)) == 1

    def test_invalid_parallel_links(self):
        config = PearlConfig()
        with pytest.raises(ValueError):
            PearlRouter(
                router_id=0,
                config=config,
                policy_kind=PowerPolicyKind.STATIC,
                parallel_links=0,
            )
