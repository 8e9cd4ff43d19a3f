"""Tests for repro.noc.stats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.packet import CacheLevel, CoreType, make_request, make_response
from repro.noc.stats import NetworkStats


def _delivered_request(stats, cycle=10):
    packet = make_request(0, 16, CoreType.CPU, CacheLevel.CPU_L2_DOWN, cycle=0)
    stats.on_injected(packet)
    stats.on_delivered(packet, cycle)
    return packet


class TestCounters:
    def test_injection_and_delivery(self):
        stats = NetworkStats()
        _delivered_request(stats)
        cpu = stats.counters[CoreType.CPU]
        assert cpu.packets_injected == 1
        assert cpu.packets_delivered == 1
        assert cpu.mean_latency == 10.0

    def test_flit_accounting(self):
        stats = NetworkStats()
        packet = make_response(16, 0, CoreType.GPU, CacheLevel.L3, cycle=0)
        stats.on_injected(packet)
        stats.on_delivered(packet, 5)
        gpu = stats.counters[CoreType.GPU]
        assert gpu.flits_delivered == 5
        assert stats.bits_delivered == 5 * 128

    def test_local_packets_tracked_separately(self):
        stats = NetworkStats()
        local = make_request(2, 2, CoreType.CPU, CacheLevel.CPU_L1_DATA, cycle=0)
        stats.on_injected(local)
        stats.on_delivered(local, 2)
        assert stats.local_packets_delivered == 1
        assert stats.network_flits_delivered == 0

    def test_network_flits_counted(self):
        stats = NetworkStats()
        _delivered_request(stats)
        assert stats.network_flits_delivered == 1


class TestMeasurementWindow:
    def test_begin_measurement_resets(self):
        stats = NetworkStats()
        _delivered_request(stats)
        stats.begin_measurement(100)
        assert stats.packets_delivered == 0
        assert stats.measure_start_cycle == 100

    def test_measured_cycles(self):
        stats = NetworkStats()
        stats.begin_measurement(100)
        stats.finish(600)
        assert stats.measured_cycles == 500

    def test_throughput_uses_network_flits(self):
        stats = NetworkStats()
        stats.begin_measurement(0)
        _delivered_request(stats)
        local = make_request(1, 1, CoreType.CPU, CacheLevel.CPU_L1_DATA, cycle=0)
        stats.on_injected(local)
        stats.on_delivered(local, 1)
        stats.finish(100)
        assert stats.throughput_flits_per_cycle() == pytest.approx(1 / 100)

    def test_throughput_gbps(self):
        stats = NetworkStats()
        stats.begin_measurement(0)
        _delivered_request(stats)
        stats.finish(1)
        assert stats.throughput_gbps(2.0) == pytest.approx(128 * 2.0)


class TestDerivedMetrics:
    def test_link_utilization(self):
        stats = NetworkStats()
        for busy in (True, False, True, True):
            stats.on_link_sample(busy)
        assert stats.link_utilization() == pytest.approx(0.75)

    def test_link_utilization_empty(self):
        assert NetworkStats().link_utilization() == 0.0

    def test_mean_latency_empty(self):
        assert NetworkStats().mean_latency() == 0.0

    def test_energy_per_bit(self):
        stats = NetworkStats()
        stats.begin_measurement(0)
        _delivered_request(stats)
        stats.finish(10)
        stats.laser_energy_j = 1e-9
        # 128 network bits delivered.
        assert stats.energy_per_bit_pj() == pytest.approx(1e3 / 128)

    def test_energy_per_bit_no_traffic(self):
        assert NetworkStats().energy_per_bit_pj() == 0.0

    def test_mean_laser_power(self):
        stats = NetworkStats()
        stats.begin_measurement(0)
        stats.finish(2_000)  # 1 us at 2 GHz
        stats.laser_energy_j = 1e-6
        assert stats.mean_laser_power_w(2.0) == pytest.approx(1.0)

    def test_total_energy_sums_components(self):
        stats = NetworkStats()
        stats.laser_energy_j = 1.0
        stats.trimming_energy_j = 2.0
        stats.ml_energy_j = 3.0
        stats.electrical_energy_j = 4.0
        assert stats.total_energy_j() == pytest.approx(10.0)

    def test_summary_keys(self):
        summary = NetworkStats().summary()
        for key in (
            "throughput_flits_per_cycle",
            "mean_latency_cycles",
            "energy_per_bit_pj",
            "laser_power_w",
        ):
            assert key in summary


def _finished(latencies, cycles=100):
    """A finished run whose packets took ``latencies``, in that order."""
    stats = NetworkStats()
    for latency in latencies:
        _delivered_request(stats, cycle=latency)
    stats.finish(cycles)
    return stats


def _sorted_sample(latencies, q):
    """The percentile as the per-packet list defined it."""
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    n = len(ordered)
    return float(ordered[min(int(round(q / 100.0 * (n - 1))), n - 1)])


#: Latency lists: empty, one sample, heavy ties, and wide values.
LATENCY_LISTS = st.one_of(
    st.just([]),
    st.lists(st.integers(0, 2**40), min_size=1, max_size=1),
    st.lists(st.integers(0, 3), min_size=1, max_size=300),
    st.lists(st.integers(0, 2**40), max_size=100),
)


class TestLatencyPercentiles:
    def _populated(self):
        return _finished(range(1, 101))  # latencies 1..100

    def test_median(self):
        stats = self._populated()
        assert stats.latency_percentile(50) == pytest.approx(50, abs=1)

    def test_p99_near_max(self):
        stats = self._populated()
        assert stats.latency_percentile(99) == pytest.approx(99, abs=1)
        assert stats.latency_percentile(100) == 100

    def test_percentiles_monotone(self):
        stats = self._populated()
        values = [stats.latency_percentile(q) for q in (0, 25, 50, 75, 95, 100)]
        assert values == sorted(values)

    def test_empty_is_zero(self):
        assert NetworkStats().latency_percentile(99) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            NetworkStats().latency_percentile(101)

    def test_reset_by_begin_measurement(self):
        stats = self._populated()
        stats.begin_measurement(0)
        assert stats.latency_percentile(50) == 0.0


class TestHistogramExactness:
    """The histogram answers what the per-packet list answered, exactly."""

    @settings(max_examples=200, deadline=None)
    @given(
        latencies=LATENCY_LISTS,
        q=st.floats(0.0, 100.0, allow_nan=False),
    )
    def test_percentile_is_the_sorted_sample(self, latencies, q):
        stats = _finished(latencies)
        assert stats._latencies == []  # folded and dropped
        assert sum(stats.latency_counts) == len(latencies)
        for quantile in (0, 0.1, 25, 50, 95, 99, 99.9, 100, q):
            assert stats.latency_percentile(quantile) == _sorted_sample(
                latencies, quantile
            ), quantile

    @settings(max_examples=100, deadline=None)
    @given(parts=st.lists(LATENCY_LISTS, max_size=4))
    def test_merge_is_the_fold_of_the_concatenation(self, parts):
        merged = NetworkStats.merge([_finished(part) for part in parts])
        whole = _finished([value for part in parts for value in part])
        assert (merged.latency_values, merged.latency_counts) == (
            whole.latency_values,
            whole.latency_counts,
        )


class TestSerialization:
    def _populated_run(self):
        stats = NetworkStats()
        stats.begin_measurement(100)
        for cycle in (10, 20, 35):
            _delivered_request(stats, cycle=cycle)
        gpu = make_response(16, 0, CoreType.GPU, CacheLevel.L3, cycle=0)
        stats.on_injected(gpu)
        stats.on_delivered(gpu, 7)
        for busy in (True, False, True):
            stats.on_link_sample(busy)
        stats.laser_energy_j = 1.5e-6
        stats.trimming_energy_j = 2.5e-7
        stats.modulation_energy_j = 1.25e-8
        stats.receiver_energy_j = 3.0e-8
        stats.ml_energy_j = 4.0e-9
        stats.electrical_energy_j = 5.5e-7
        stats.finish(600)
        return stats

    def test_roundtrip_is_lossless(self):
        stats = self._populated_run()
        rebuilt = NetworkStats.from_dict(stats.to_dict())
        assert rebuilt.to_dict() == stats.to_dict()
        assert rebuilt.summary() == stats.summary()
        assert rebuilt.latency_percentile(95) == stats.latency_percentile(95)

    def test_roundtrip_with_external_latencies(self):
        stats = self._populated_run()
        data = stats.to_dict(include_histogram=False)
        assert "latency_values" not in data
        assert "latency_counts" not in data
        rebuilt = NetworkStats.from_dict(data)
        rebuilt.latency_values = stats.latency_values
        rebuilt.latency_counts = stats.latency_counts
        assert rebuilt.to_dict() == stats.to_dict()

    def test_empty_roundtrip(self):
        rebuilt = NetworkStats.from_dict(NetworkStats().to_dict())
        assert rebuilt.packets_delivered == 0
        assert rebuilt.mean_latency() == 0.0


class TestMerge:
    def _run(self, cycles, deliveries):
        stats = NetworkStats()
        stats.begin_measurement(0)
        for cycle in deliveries:
            _delivered_request(stats, cycle=cycle)
        stats.laser_energy_j = 1e-6 * len(deliveries)
        stats.finish(cycles)
        return stats

    def test_counters_and_energies_sum(self):
        a = self._run(100, [10, 20])
        b = self._run(200, [30])
        merged = NetworkStats.merge([a, b])
        assert merged.packets_delivered == 3
        assert merged.network_flits_delivered == 3
        assert merged.laser_energy_j == pytest.approx(3e-6)

    def test_measurement_windows_concatenate(self):
        a = self._run(100, [10])
        b = self._run(200, [30])
        merged = NetworkStats.merge([a, b])
        assert merged.measured_cycles == 300
        assert merged.throughput_flits_per_cycle() == pytest.approx(2 / 300)

    def test_latency_samples_concatenate(self):
        a = self._run(100, [10, 20])
        b = self._run(200, [30])
        merged = NetworkStats.merge([a, b, self._run(50, [20])])
        assert merged.latency_values == (10, 20, 30)
        assert merged.latency_counts == (1, 2, 1)
        assert merged.latency_percentile(100) == 30

    def test_merge_of_one_matches_original(self):
        original = self._run(100, [10, 20])
        merged = NetworkStats.merge([original])
        assert merged.to_dict() == original.to_dict()

    def test_merge_empty_is_empty(self):
        merged = NetworkStats.merge([])
        assert merged.packets_delivered == 0


class TestFieldCoverage:
    """Every ``__init__`` attribute must survive round trips and merges.

    Guards against fields being silently dropped: every attribute is
    populated with a distinct value via ``vars()`` (so a newly added
    field is picked up automatically), then checked after a
    to_dict/from_dict round trip and after a single-part merge.
    """

    def _populated(self) -> NetworkStats:
        stats = NetworkStats()
        values = iter(range(3, 1000))
        for name, attr in vars(stats).items():
            if name == "counters":
                for counter in attr.values():
                    for field in vars(counter):
                        setattr(counter, field, next(values))
            elif name == "_latencies":
                pass  # the run's samples: folded and empty once finished
            elif name in ("latency_values", "latency_counts"):
                setattr(stats, name, (next(values), next(values)))
            elif isinstance(attr, float):
                setattr(stats, name, next(values) + 0.5)
            elif isinstance(attr, int):
                setattr(stats, name, next(values))
            else:
                raise AssertionError(
                    f"unhandled NetworkStats attribute {name!r}: "
                    "teach this test (and to_dict/merge) about it"
                )
        return stats

    def test_roundtrip_carries_every_attribute(self):
        original = self._populated()
        rebuilt = NetworkStats.from_dict(original.to_dict())
        assert vars(rebuilt) == vars(original)

    def test_external_latency_roundtrip_carries_every_attribute(self):
        original = self._populated()
        rebuilt = NetworkStats.from_dict(
            original.to_dict(include_histogram=False)
        )
        rebuilt.latency_values = original.latency_values
        rebuilt.latency_counts = original.latency_counts
        assert vars(rebuilt) == vars(original)

    def test_merge_of_one_carries_every_attribute(self):
        original = self._populated()
        merged = NetworkStats.merge([original])
        expected = dict(vars(original))
        actual = dict(vars(merged))
        # merge re-bases the measurement window at cycle 0; the window
        # *length* is what must survive, not its absolute position.
        assert merged.measure_start_cycle == 0
        assert merged.measured_cycles == original.measured_cycles
        for rebased in ("measure_start_cycle", "final_cycle"):
            expected.pop(rebased)
            actual.pop(rebased)
        assert actual == expected
