"""Tests for repro.traffic.analysis — burstiness/character metrics."""

import numpy as np
import pytest

from repro.noc.packet import CoreType
from repro.traffic.analysis import (
    TraceCharacter,
    characterize,
    compare_core_types,
    index_of_dispersion,
    lag1_autocorrelation,
    load_imbalance,
    peak_to_mean,
    windowed_counts,
)
from repro.traffic.benchmarks import CPU_BENCHMARKS, GPU_BENCHMARKS
from repro.traffic.synthetic import generate_pair_trace, generate_trace
from repro.traffic.trace import Trace


class TestWindowedCounts:
    def test_counts_bin_correctly(self):
        trace = generate_trace(
            CPU_BENCHMARKS["fluidanimate"], duration=2_000, seed=1
        )
        counts = windowed_counts(trace, window=500)
        assert counts.sum() == len(trace)
        assert counts.size == 4

    def test_filter_by_core_type(self):
        trace = generate_pair_trace(
            CPU_BENCHMARKS["fluidanimate"],
            GPU_BENCHMARKS["dct"],
            duration=2_000,
            seed=1,
        )
        cpu = windowed_counts(trace, core_type=CoreType.CPU).sum()
        gpu = windowed_counts(trace, core_type=CoreType.GPU).sum()
        assert cpu + gpu == len(trace)

    def test_empty_trace(self):
        assert windowed_counts(Trace([])).size == 0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            windowed_counts(Trace([]), window=0)


    @pytest.mark.parametrize("window", [1, 7, 500])
    @pytest.mark.parametrize("core_type", [None, CoreType.CPU, CoreType.GPU])
    @pytest.mark.parametrize("source", [None, 0, 15])
    def test_columns_match_an_event_loop(self, window, core_type, source):
        """The column counts equal a plain loop over the events."""
        trace = generate_pair_trace(
            CPU_BENCHMARKS["fluidanimate"],
            GPU_BENCHMARKS["dct"],
            duration=1_500,
            seed=2,
        )
        cycles = [
            e.cycle
            for e in trace
            if (core_type is None or e.core_type is core_type)
            and (source is None or e.source == source)
        ]
        expected = np.zeros(max(cycles) // window + 1, dtype=int)
        for cycle in cycles:
            expected[cycle // window] += 1
        counts = windowed_counts(trace, window, core_type, source)
        assert counts.tolist() == expected.tolist()


class TestMetrics:
    def test_idc_poisson_near_one(self):
        rng = np.random.default_rng(0)
        counts = rng.poisson(20, size=2_000)
        assert index_of_dispersion(counts) == pytest.approx(1.0, abs=0.15)

    def test_idc_constant_is_zero(self):
        assert index_of_dispersion(np.full(100, 7)) == 0.0

    def test_idc_empty(self):
        assert index_of_dispersion(np.zeros(0)) == 0.0

    def test_peak_to_mean(self):
        assert peak_to_mean(np.array([1.0, 1.0, 4.0])) == pytest.approx(2.0)

    def test_lag1_of_alternating_is_negative(self):
        counts = np.array([10, 0] * 50, dtype=float)
        assert lag1_autocorrelation(counts) < -0.9

    def test_lag1_of_trend_is_positive(self):
        assert lag1_autocorrelation(np.arange(100, dtype=float)) > 0.9

    def test_lag1_short_series(self):
        assert lag1_autocorrelation(np.array([1.0, 2.0])) == 0.0

    def test_load_imbalance_uniform(self):
        trace = generate_trace(
            CPU_BENCHMARKS["fluidanimate"], duration=10_000, seed=1
        )
        assert load_imbalance(trace) == pytest.approx(1.0, abs=0.3)

    def test_load_imbalance_matches_an_event_loop(self):
        trace = generate_pair_trace(
            CPU_BENCHMARKS["fluidanimate"],
            GPU_BENCHMARKS["dct"],
            duration=1_500,
            seed=2,
        )
        for num_sources in (4, 16, 17):
            counts = np.zeros(num_sources)
            for event in trace:
                if event.source < num_sources:
                    counts[event.source] += 1
            assert load_imbalance(trace, num_sources) == float(
                counts.max() / counts.mean()
            )

    def test_load_imbalance_empty(self):
        assert load_imbalance(Trace([])) == 0.0


class TestCharacterization:
    def test_gpu_traces_burstier_than_cpu(self):
        """The paper's premise holds per router, where scaling acts:
        GPU kernel bursts dominate CPU phase structure."""
        from repro.traffic.analysis import per_source_idc

        trace = generate_pair_trace(
            CPU_BENCHMARKS["fluidanimate"],
            GPU_BENCHMARKS["quasi_random"],
            duration=30_000,
            seed=2,
        )
        gpu_idc = per_source_idc(trace, core_type=CoreType.GPU)
        cpu_idc = per_source_idc(trace, core_type=CoreType.CPU)
        assert gpu_idc > cpu_idc
        characters = compare_core_types(trace, window=500)
        assert characters["gpu"].peak_to_mean > characters["cpu"].peak_to_mean

    def test_gpu_verdict_bursty(self):
        trace = generate_trace(
            GPU_BENCHMARKS["quasi_random"], duration=30_000, seed=3
        )
        character = characterize(trace, window=500)
        assert character.is_bursty()

    def test_character_fields_consistent(self):
        trace = generate_trace(
            CPU_BENCHMARKS["barnes"], duration=5_000, seed=4
        )
        character = characterize(trace)
        assert character.events == len(trace)
        assert character.mean_rate_per_cycle > 0

    def test_empty_character(self):
        character = characterize(Trace([]))
        assert character.events == 0
        assert not character.is_bursty()
