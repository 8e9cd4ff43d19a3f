"""Tests for repro.ml.features — the Table III feature vector."""

import numpy as np
import pytest

from repro.ml.features import (
    CACHE_LEVEL_ORDER,
    FEATURE_NAMES,
    NUM_FEATURES,
    FeatureCollector,
)
from repro.noc.packet import (
    CacheLevel,
    CoreType,
    make_request,
    make_response,
)


class TestFeatureLayout:
    def test_thirty_features(self):
        assert NUM_FEATURES == 30
        assert len(FEATURE_NAMES) == 30

    def test_first_feature_is_l3_indicator(self):
        assert FEATURE_NAMES[0] == "l3_router"

    def test_last_feature_is_wavelengths(self):
        assert FEATURE_NAMES[29] == "num_wavelengths"

    def test_cache_level_order_matches_table3(self):
        assert CACHE_LEVEL_ORDER[0] is CacheLevel.CPU_L1_INSTR
        assert CACHE_LEVEL_ORDER[-1] is CacheLevel.L3
        assert len(CACHE_LEVEL_ORDER) == 8

    def test_request_features_precede_response_features(self):
        assert FEATURE_NAMES[13] == "request_cpu_l1i"
        assert FEATURE_NAMES[21] == "response_cpu_l1i"


class TestCollector:
    def test_snapshot_shape(self):
        vec = FeatureCollector().snapshot(64)
        assert vec.shape == (NUM_FEATURES,)

    def test_l3_indicator(self):
        assert FeatureCollector(is_l3_router=True).snapshot(64)[0] == 1.0
        assert FeatureCollector(is_l3_router=False).snapshot(64)[0] == 0.0

    def test_wavelength_feature(self):
        assert FeatureCollector().snapshot(48)[29] == 48.0

    def test_occupancy_averaging(self):
        collector = FeatureCollector(capacities=(10, 10, 10, 10))
        collector.observe_occupancies(2, 0, 4, 0)
        collector.observe_occupancies(4, 0, 8, 0)
        vec = collector.snapshot(64)
        assert vec[1] == pytest.approx(0.3)  # CPU core buffer util
        assert vec[3] == pytest.approx(0.6)  # GPU core buffer util

    def test_buffer_mean_pools_the_input_buffers(self):
        """Buf_w divides the two input pools' slot-cycles by their
        pooled capacity, then by the samples; ejection is left out."""
        collector = FeatureCollector(capacities=(48, 64, 40, 64))
        collector.observe_occupancies(12, 64, 10, 0)
        collector.observe_occupancies(12, 64, 10, 0)
        assert collector.buffer_mean() == 0.25
        vec = collector.snapshot(64)
        assert vec[1] == 0.25  # 24 slot-cycles / 48 slots / 2 samples
        assert vec[2] == 1.0
        assert vec[3] == 0.25
        assert collector.buffer_mean() == 0.0  # the window restarted

    def test_rejects_bad_capacities(self):
        with pytest.raises(ValueError):
            FeatureCollector(capacities=(64, 64, 0, 64))
        with pytest.raises(ValueError):
            FeatureCollector(capacities=(64, 64))

    def test_link_utilization(self):
        collector = FeatureCollector()
        for busy in (True, True, False, False):
            collector.observe_link(busy)
        assert collector.snapshot(64)[5] == pytest.approx(0.5)

    def test_injection_counts(self):
        collector = FeatureCollector()
        collector.on_injected(
            make_request(0, 16, CoreType.CPU, CacheLevel.CPU_L2_DOWN)
        )
        collector.on_injected(
            make_request(0, 0, CoreType.GPU, CacheLevel.GPU_L1)
        )
        vec = collector.snapshot(64)
        assert vec[8] == 2.0  # incoming from cores
        assert vec[9] == 2.0  # requests sent

    def test_network_injected_excludes_local(self):
        collector = FeatureCollector()
        collector.on_injected(
            make_request(0, 16, CoreType.CPU, CacheLevel.CPU_L2_DOWN)
        )
        collector.on_injected(
            make_request(0, 0, CoreType.CPU, CacheLevel.CPU_L1_DATA)
        )
        assert collector.injected_this_window == 2
        assert collector.network_injected_this_window == 1

    def test_received_counts(self):
        collector = FeatureCollector()
        collector.on_received(
            make_response(16, 0, CoreType.CPU, CacheLevel.L3)
        )
        vec = collector.snapshot(64)
        assert vec[7] == 1.0  # incoming from other routers
        assert vec[12] == 1.0  # responses received

    def test_delivered_to_core(self):
        collector = FeatureCollector()
        packet = make_response(16, 0, CoreType.CPU, CacheLevel.L3)
        collector.on_delivered_to_core(packet)
        assert collector.snapshot(64)[6] == 1.0

    def test_cache_level_request_slots(self):
        collector = FeatureCollector()
        collector.on_injected(
            make_request(0, 16, CoreType.GPU, CacheLevel.GPU_L2_DOWN)
        )
        vec = collector.snapshot(64)
        gpu_l2_down_idx = 13 + CACHE_LEVEL_ORDER.index(CacheLevel.GPU_L2_DOWN)
        assert vec[gpu_l2_down_idx] == 1.0

    def test_cache_level_response_slots(self):
        collector = FeatureCollector()
        collector.on_received(
            make_response(16, 0, CoreType.CPU, CacheLevel.L3)
        )
        vec = collector.snapshot(64)
        l3_response_idx = 21 + CACHE_LEVEL_ORDER.index(CacheLevel.L3)
        assert vec[l3_response_idx] == 1.0

    def test_snapshot_resets(self):
        collector = FeatureCollector()
        collector.on_injected(
            make_request(0, 16, CoreType.CPU, CacheLevel.CPU_L2_DOWN)
        )
        collector.observe_occupancies(64, 64, 64, 64)
        collector.snapshot(64)
        fresh = collector.snapshot(64)
        assert np.all(fresh[1:29] == 0.0)
        assert collector.injected_this_window == 0

    def test_empty_window_is_finite(self):
        vec = FeatureCollector().snapshot(8)
        assert np.all(np.isfinite(vec))

    def test_request_and_response_sent_split(self):
        collector = FeatureCollector()
        collector.on_injected(
            make_request(0, 16, CoreType.CPU, CacheLevel.CPU_L2_DOWN)
        )
        collector.on_injected(
            make_response(0, 16, CoreType.CPU, CacheLevel.CPU_L2_DOWN)
        )
        vec = collector.snapshot(64)
        assert vec[9] == 1.0  # requests sent
        assert vec[11] == 1.0  # responses sent
