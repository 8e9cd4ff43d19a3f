"""Tests for repro.traffic.benchmarks — the 24 workload profiles."""

import pytest

from repro.config import ArchitectureConfig
from repro.noc.packet import CoreType
from repro.traffic.benchmarks import (
    BenchmarkProfile,
    CPU_BENCHMARKS,
    CPU_TEST,
    CPU_TRAIN,
    CPU_VALIDATION,
    GPU_BENCHMARKS,
    GPU_TEST,
    GPU_TRAIN,
    GPU_VALIDATION,
    Phase,
    get_benchmark,
    pair_name,
)
from repro.traffic.benchmarks import test_pairs as paper_test_pairs
from repro.traffic.benchmarks import training_pairs, validation_pairs
from repro.traffic.synthetic import generate_trace


class TestCatalogue:
    def test_twelve_each(self):
        assert len(CPU_BENCHMARKS) == 12
        assert len(GPU_BENCHMARKS) == 12

    def test_core_types_consistent(self):
        assert all(
            p.core_type is CoreType.CPU for p in CPU_BENCHMARKS.values()
        )
        assert all(
            p.core_type is CoreType.GPU for p in GPU_BENCHMARKS.values()
        )

    def test_gpu_benchmarks_are_bursty(self):
        assert all(p.is_bursty for p in GPU_BENCHMARKS.values())

    def test_cpu_benchmarks_not_bursty(self):
        assert not any(p.is_bursty for p in CPU_BENCHMARKS.values())

    def test_gpu_idle_level_below_one(self):
        """GPU profiles go quiet between kernels."""
        assert all(p.idle_level < 1.0 for p in GPU_BENCHMARKS.values())

    def test_paper_table4_test_benchmarks_present(self):
        abbreviations = {CPU_BENCHMARKS[n].abbreviation for n in CPU_TEST}
        assert abbreviations == {"FA", "fmm", "Rad", "x264"}
        abbreviations = {GPU_BENCHMARKS[n].abbreviation for n in GPU_TEST}
        assert abbreviations == {"DCT", "Dwt", "QRS", "Reduc"}

    def test_get_benchmark(self):
        assert get_benchmark("fluidanimate").abbreviation == "FA"
        assert get_benchmark("dct").core_type is CoreType.GPU
        with pytest.raises(KeyError):
            get_benchmark("nonexistent")

    def test_get_benchmark_error_lists_available_names(self):
        """The KeyError enumerates every valid name a caller could
        have meant — CPU, GPU and the collective family."""
        with pytest.raises(KeyError) as excinfo:
            get_benchmark("allreduce_ring")
        message = str(excinfo.value)
        assert "fluidanimate" in message
        assert "dct" in message
        assert "collective:" in message
        assert "allreduce_ring" in message


class TestSplits:
    def test_paper_split_sizes(self):
        assert len(CPU_TRAIN) == 6 and len(GPU_TRAIN) == 6
        assert len(CPU_VALIDATION) == 2 and len(GPU_VALIDATION) == 2
        assert len(CPU_TEST) == 4 and len(GPU_TEST) == 4

    def test_splits_disjoint_and_complete(self):
        cpu_all = set(CPU_TRAIN) | set(CPU_VALIDATION) | set(CPU_TEST)
        assert cpu_all == set(CPU_BENCHMARKS)
        assert len(CPU_TRAIN) + len(CPU_VALIDATION) + len(CPU_TEST) == 12
        gpu_all = set(GPU_TRAIN) | set(GPU_VALIDATION) | set(GPU_TEST)
        assert gpu_all == set(GPU_BENCHMARKS)

    def test_pair_counts_match_paper(self):
        assert len(training_pairs()) == 36
        assert len(validation_pairs()) == 4
        assert len(paper_test_pairs()) == 16

    def test_pairs_are_cpu_gpu(self):
        for cpu, gpu in paper_test_pairs():
            assert cpu.core_type is CoreType.CPU
            assert gpu.core_type is CoreType.GPU

    def test_pair_name(self):
        cpu, gpu = paper_test_pairs()[0]
        assert pair_name(cpu, gpu) == f"{cpu.abbreviation}+{gpu.abbreviation}"


class TestProfileValidation:
    def test_phases_sum_to_one(self):
        for profile in list(CPU_BENCHMARKS.values()) + list(
            GPU_BENCHMARKS.values()
        ):
            assert sum(p.fraction for p in profile.phases) == pytest.approx(1.0)

    def test_invalid_phase_fraction(self):
        with pytest.raises(ValueError):
            Phase(fraction=0.0, rate_multiplier=1.0)

    def test_invalid_phase_sum_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkProfile(
                name="bad",
                abbreviation="B",
                core_type=CoreType.CPU,
                injection_rate=0.1,
                local_fraction=0.5,
                l3_fraction=0.5,
                phases=(Phase(0.5, 1.0),),
            )

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkProfile(
                name="bad",
                abbreviation="B",
                core_type=CoreType.CPU,
                injection_rate=-0.1,
                local_fraction=0.5,
                l3_fraction=0.5,
            )

    def test_burst_intensity_below_one_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkProfile(
                name="bad",
                abbreviation="B",
                core_type=CoreType.GPU,
                injection_rate=0.1,
                local_fraction=0.5,
                l3_fraction=0.5,
                burst_intensity=0.5,
            )

    def test_fraction_range_enforced(self):
        with pytest.raises(ValueError):
            BenchmarkProfile(
                name="bad",
                abbreviation="B",
                core_type=CoreType.CPU,
                injection_rate=0.1,
                local_fraction=1.5,
                l3_fraction=0.5,
            )


ALL_PROFILES = {**CPU_BENCHMARKS, **GPU_BENCHMARKS}


@pytest.mark.parametrize("name", sorted(ALL_PROFILES))
def test_generated_trace_honours_profile(name):
    """Each catalogue row's trace injects at its phase-weighted rate
    and splits its packets local / L3 / peer as the row declares."""
    profile = ALL_PROFILES[name]
    arch = ArchitectureConfig()
    duration = 20_000
    trace = generate_trace(profile, arch, duration=duration, seed=1)
    source, destination = trace.columns[1], trace.columns[2]

    phase_mean = sum(p.fraction * p.rate_multiplier for p in profile.phases)
    rate = len(trace) / (duration * arch.num_clusters)
    assert rate == pytest.approx(profile.injection_rate * phase_mean, rel=0.05)
    local = source == destination
    assert local.mean() == pytest.approx(profile.local_fraction, abs=0.03)
    to_l3 = destination[~local] == arch.l3_router_id
    assert to_l3.mean() == pytest.approx(profile.l3_fraction, abs=0.03)
