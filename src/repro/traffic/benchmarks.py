"""Synthetic models of the paper's CPU and GPU benchmarks (Sec. IV-A).

The paper drives its network simulator with Multi2Sim traces of 12
PARSEC 2.1 / SPLASH2 CPU benchmarks and 12 OpenCL SDK GPU benchmarks.
We have no Multi2Sim, so each benchmark becomes a
:class:`BenchmarkProfile` — a deterministic parameterisation of the
injection process (rate, burstiness, phase structure, L3 affinity,
local L1<->L2 share) chosen to reproduce the traits the paper relies
on: CPU traffic is steadier and latency-sensitive, GPU traffic is
bursty and floods the network during kernels.

The train/validation/test split matches the paper: 6+6 training
benchmarks (36 pairs), 2+2 validation (4 pairs), and the Table IV test
set FA/fmm/Rad/x264 x DCT/Dwt/QRS/Reduc (16 pairs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..noc.packet import CoreType


@dataclass(frozen=True)
class Phase:
    """One execution phase: a fraction of runtime at a rate multiplier."""

    fraction: float
    rate_multiplier: float

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("phase fraction must be in (0, 1]")
        if self.rate_multiplier < 0.0:
            raise ValueError("rate multiplier cannot be negative")


@dataclass(frozen=True)
class BenchmarkProfile:
    """Injection-process parameters for one benchmark.

    ``injection_rate`` is the mean packets/cycle a cluster's cores of
    this type inject at full activity.  GPU burstiness is a two-state
    (idle/kernel) modulation: bursts arrive with mean gap
    ``burst_gap_cycles``, last ``burst_length_cycles`` on average and
    multiply the rate by ``burst_intensity`` (CPU profiles use
    intensity 1.0, i.e. no bursts).
    """

    name: str
    abbreviation: str
    core_type: CoreType
    injection_rate: float
    local_fraction: float
    l3_fraction: float
    burst_intensity: float = 1.0
    burst_gap_cycles: float = 2_000.0
    burst_length_cycles: float = 500.0
    idle_level: float = 1.0
    phases: Tuple[Phase, ...] = (Phase(1.0, 1.0),)

    def __post_init__(self) -> None:
        if self.injection_rate < 0:
            raise ValueError("injection rate cannot be negative")
        for frac in (self.local_fraction, self.l3_fraction):
            if not 0.0 <= frac <= 1.0:
                raise ValueError("fractions must be in [0, 1]")
        if abs(sum(p.fraction for p in self.phases) - 1.0) > 1e-9:
            raise ValueError("phase fractions must sum to 1")
        if self.burst_intensity < 1.0:
            raise ValueError("burst intensity must be >= 1")
        if not 0.0 <= self.idle_level <= 1.0:
            raise ValueError("idle_level must be in [0, 1]")

    @property
    def is_bursty(self) -> bool:
        """True when the profile has kernel-style bursts (GPU-like)."""
        return self.burst_intensity > 1.0


def _cpu(
    name: str,
    abbr: str,
    rate: float,
    local: float,
    l3: float,
    phases: Tuple[Phase, ...] = (Phase(1.0, 1.0),),
) -> BenchmarkProfile:
    return BenchmarkProfile(
        name=name,
        abbreviation=abbr,
        core_type=CoreType.CPU,
        injection_rate=rate,
        local_fraction=local,
        l3_fraction=l3,
        phases=phases,
    )


def _gpu(
    name: str,
    abbr: str,
    rate: float,
    local: float,
    l3: float,
    intensity: float,
    gap: float,
    length: float,
) -> BenchmarkProfile:
    return BenchmarkProfile(
        name=name,
        abbreviation=abbr,
        core_type=CoreType.GPU,
        injection_rate=rate,
        local_fraction=local,
        l3_fraction=l3,
        burst_intensity=intensity,
        burst_gap_cycles=gap,
        burst_length_cycles=length,
        # GPU kernels are launch-driven: between kernels the CUs are
        # nearly silent (only stragglers and writebacks trickle out).
        idle_level=0.15,
    )


_TWO_PHASE = (Phase(0.5, 1.4), Phase(0.5, 0.6))
_RAMP = (Phase(0.25, 0.5), Phase(0.5, 1.3), Phase(0.25, 0.7))
_SPIKE = (Phase(0.4, 0.7), Phase(0.2, 1.9), Phase(0.4, 0.7))

#: The 12 CPU benchmarks (PARSEC 2.1 + SPLASH2 stand-ins).
CPU_BENCHMARKS: Dict[str, BenchmarkProfile] = {
    p.name: p
    for p in [
        # -- training (6) --
        _cpu("blackscholes", "BS", 0.030, 0.55, 0.85),
        _cpu("bodytrack", "BT", 0.050, 0.50, 0.80, _TWO_PHASE),
        _cpu("canneal", "CA", 0.085, 0.40, 0.75),
        _cpu("streamcluster", "SC", 0.075, 0.45, 0.80, _RAMP),
        _cpu("barnes", "BA", 0.045, 0.55, 0.70, _TWO_PHASE),
        _cpu("ocean", "OC", 0.090, 0.35, 0.80, _RAMP),
        # -- validation (2) --
        _cpu("raytrace", "RT", 0.040, 0.60, 0.75),
        _cpu("water", "WA", 0.035, 0.55, 0.70, _TWO_PHASE),
        # -- test (4), Table IV --
        _cpu("fluidanimate", "FA", 0.065, 0.45, 0.80, _RAMP),
        _cpu("fmm", "fmm", 0.050, 0.50, 0.75, _TWO_PHASE),
        _cpu("radiosity", "Rad", 0.060, 0.50, 0.70, _SPIKE),
        _cpu("x264", "x264", 0.070, 0.40, 0.85, _SPIKE),
    ]
}

#: The 12 GPU benchmarks (AMD OpenCL SDK stand-ins).
GPU_BENCHMARKS: Dict[str, BenchmarkProfile] = {
    p.name: p
    for p in [
        # -- training (6) --
        _gpu("binary_search", "BSe", 0.020, 0.45, 0.90, 5.0, 3000, 300),
        _gpu("bitonic_sort", "BSo", 0.035, 0.40, 0.85, 4.0, 2000, 500),
        _gpu("fast_walsh", "FWT", 0.040, 0.35, 0.90, 3.5, 1500, 600),
        _gpu("floyd_warshall", "FW", 0.050, 0.30, 0.85, 3.0, 1200, 800),
        _gpu("histogram", "His", 0.030, 0.45, 0.90, 4.5, 2500, 400),
        _gpu("matrix_mult", "MM", 0.055, 0.35, 0.85, 3.0, 1000, 900),
        # -- validation (2) --
        _gpu("matrix_transpose", "MT", 0.045, 0.30, 0.90, 3.5, 1800, 500),
        _gpu("prefix_sum", "PS", 0.025, 0.40, 0.85, 5.0, 2800, 350),
        # -- test (4), Table IV --
        _gpu("dct", "DCT", 0.045, 0.35, 0.90, 3.5, 1500, 600),
        _gpu("dwt_haar", "Dwt", 0.035, 0.40, 0.85, 4.0, 2000, 450),
        _gpu("quasi_random", "QRS", 0.025, 0.45, 0.90, 5.5, 3000, 300),
        _gpu("reduction", "Reduc", 0.050, 0.30, 0.85, 3.0, 1200, 700),
    ]
}

CPU_TRAIN = ("blackscholes", "bodytrack", "canneal", "streamcluster", "barnes", "ocean")
CPU_VALIDATION = ("raytrace", "water")
CPU_TEST = ("fluidanimate", "fmm", "radiosity", "x264")

GPU_TRAIN = ("binary_search", "bitonic_sort", "fast_walsh", "floyd_warshall", "histogram", "matrix_mult")
GPU_VALIDATION = ("matrix_transpose", "prefix_sum")
GPU_TEST = ("dct", "dwt_haar", "quasi_random", "reduction")


def get_benchmark(name: str) -> BenchmarkProfile:
    """Look up a benchmark profile by name (CPU or GPU).

    Collective workloads are not profiles — they compile straight to a
    trace — but the error names them so a ``collective:<algorithm>``
    spec mistyped as a benchmark gets a useful pointer.
    """
    if name in CPU_BENCHMARKS:
        return CPU_BENCHMARKS[name]
    if name in GPU_BENCHMARKS:
        return GPU_BENCHMARKS[name]
    from .collectives import COLLECTIVE_ALGORITHMS

    raise KeyError(
        f"unknown benchmark {name!r}; "
        f"CPU: {', '.join(sorted(CPU_BENCHMARKS))}; "
        f"GPU: {', '.join(sorted(GPU_BENCHMARKS))}; "
        "collectives (use collective:<name>): "
        f"{', '.join(COLLECTIVE_ALGORITHMS)}"
    )


def benchmark_pairs(
    cpu_names: Tuple[str, ...], gpu_names: Tuple[str, ...]
) -> List[Tuple[BenchmarkProfile, BenchmarkProfile]]:
    """The cross product of CPU and GPU benchmarks (the paper's pairs)."""
    return [
        (CPU_BENCHMARKS[c], GPU_BENCHMARKS[g])
        for c in cpu_names
        for g in gpu_names
    ]


def training_pairs() -> List[Tuple[BenchmarkProfile, BenchmarkProfile]]:
    """The 36 training pairs (6 CPU x 6 GPU)."""
    return benchmark_pairs(CPU_TRAIN, GPU_TRAIN)


def validation_pairs() -> List[Tuple[BenchmarkProfile, BenchmarkProfile]]:
    """The 4 validation pairs (2 CPU x 2 GPU) used to tune lambda."""
    return benchmark_pairs(CPU_VALIDATION, GPU_VALIDATION)


def test_pairs() -> List[Tuple[BenchmarkProfile, BenchmarkProfile]]:
    """The 16 test pairs (4 CPU x 4 GPU) of Table IV."""
    return benchmark_pairs(CPU_TEST, GPU_TEST)


def pair_name(
    cpu: BenchmarkProfile, gpu: BenchmarkProfile
) -> str:
    """Canonical display name of a benchmark pair (e.g. ``FA+DCT``)."""
    return f"{cpu.abbreviation}+{gpu.abbreviation}"
