"""Deterministic synthetic traffic generation.

Turns a :class:`~repro.traffic.benchmarks.BenchmarkProfile` into a
:class:`~repro.traffic.trace.Trace` of core-generated request packets:

* per-cluster arrival processes (Bernoulli thinning of the profile rate,
  vectorised with numpy);
* GPU kernel bursts via a renewal on/off modulation;
* execution phases scaling the rate over the run;
* destination mix: intra-cluster L1<->L2 requests stay local, network
  requests go to the L3 router with probability ``l3_fraction`` and to a
  uniformly random peer cluster otherwise.

Everything is seeded from the benchmark name so the same (benchmark,
seed, duration) triple always produces the same trace.  Each generator
fills the trace's columns with numpy, one vector draw per router and
quantity, in router order.
"""

from __future__ import annotations

import zlib
from typing import List, Optional

import numpy as np

from ..config import ArchitectureConfig
from ..noc.packet import CacheLevel, CoreType, PacketClass
from .benchmarks import BenchmarkProfile
from .trace import CODE, Trace

#: Request size in flits (header only).
REQUEST_FLITS = 1

#: Fraction of CPU local requests that are instruction fetches (L1I).
CPU_L1I_SHARE = 0.3


def _profile_seed(profile: BenchmarkProfile, seed: int) -> int:
    """Stable per-benchmark seed derived from its name."""
    return zlib.crc32(profile.name.encode()) ^ (seed * 0x9E3779B1) & 0x7FFFFFFF


def _phase_multipliers(profile: BenchmarkProfile, duration: int) -> np.ndarray:
    """Per-cycle rate multiplier from the profile's phase structure."""
    multipliers = np.empty(duration, dtype=float)
    start = 0
    for i, phase in enumerate(profile.phases):
        if i == len(profile.phases) - 1:
            end = duration
        else:
            end = start + int(round(phase.fraction * duration))
        multipliers[start:end] = phase.rate_multiplier
        start = end
    return multipliers


def _burst_mask(
    profile: BenchmarkProfile, duration: int, rng: np.random.Generator
) -> np.ndarray:
    """Boolean per-cycle mask of kernel-burst activity.

    Bursts arrive as a renewal process with exponential gaps of mean
    ``burst_gap_cycles`` and exponential lengths of mean
    ``burst_length_cycles``.
    """
    mask = np.zeros(duration, dtype=bool)
    if not profile.is_bursty:
        return mask
    cycle = float(rng.exponential(profile.burst_gap_cycles))
    while cycle < duration:
        length = max(1, int(rng.exponential(profile.burst_length_cycles)))
        mask[int(cycle) : int(cycle) + length] = True
        cycle += length + rng.exponential(profile.burst_gap_cycles)
    return mask


def _concat(parts: List[np.ndarray]) -> np.ndarray:
    """Concatenate per-router column parts (empty when none injected)."""
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def generate_trace(
    profile: BenchmarkProfile,
    architecture: Optional[ArchitectureConfig] = None,
    duration: int = 20_000,
    seed: int = 1,
) -> Trace:
    """Generate the injection trace of one benchmark across all clusters.

    During a burst the off-state rate is scaled down so that the *mean*
    rate over the run matches ``profile.injection_rate``; that keeps
    bursty and steady benchmarks comparable in offered load.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    architecture = architecture or ArchitectureConfig()
    rng = np.random.default_rng(_profile_seed(profile, seed))

    multipliers = _phase_multipliers(profile, duration)
    num_clusters = architecture.num_clusters
    l3_router = architecture.l3_router_id
    if profile.core_type is CoreType.CPU:
        down_level = CODE[CacheLevel.CPU_L2_DOWN]
        instr_level = CODE[CacheLevel.CPU_L1_INSTR]
        data_level = CODE[CacheLevel.CPU_L1_DATA]
    else:
        down_level = CODE[CacheLevel.GPU_L2_DOWN]
        instr_level = data_level = CODE[CacheLevel.GPU_L1]

    cycles: List[np.ndarray] = []
    sources: List[np.ndarray] = []
    destinations: List[np.ndarray] = []
    levels: List[np.ndarray] = []
    for router in range(num_clusters):
        burst = _burst_mask(profile, duration, rng)
        burst_fraction = burst.mean() if profile.is_bursty else 0.0
        # Normalise so the time-average rate equals injection_rate:
        # off-burst cycles run at idle_level * base, burst cycles at
        # burst_intensity * base.
        denom = profile.idle_level + burst_fraction * (
            profile.burst_intensity - profile.idle_level
        )
        base = profile.injection_rate / denom
        rates = base * multipliers
        if profile.is_bursty:
            rates = np.where(
                burst,
                rates * profile.burst_intensity,
                rates * profile.idle_level,
            )
        np.clip(rates, 0.0, 1.0, out=rates)

        inject_cycles = np.flatnonzero(rng.random(duration) < rates)
        if inject_cycles.size == 0:
            continue
        n = inject_cycles.size
        is_local = rng.random(n) < profile.local_fraction
        to_l3 = rng.random(n) < profile.l3_fraction
        peer = rng.integers(0, num_clusters - 1, size=n)
        peer = np.where(peer >= router, peer + 1, peer)
        is_instr = rng.random(n) < CPU_L1I_SHARE

        cycles.append(inject_cycles)
        sources.append(np.full(n, router))
        # Local requests stay in the cluster (L1 <-> L2); network ones
        # go down to the L3 router or a peer cluster.
        destinations.append(
            np.where(is_local, router, np.where(to_l3, l3_router, peer))
        )
        levels.append(
            np.where(
                is_local,
                np.where(is_instr, instr_level, data_level),
                down_level,
            )
        )
    return Trace.from_columns(
        cycle=_concat(cycles),
        source=_concat(sources),
        destination=_concat(destinations),
        core_type=CODE[profile.core_type],
        packet_class=CODE[PacketClass.REQUEST],
        cache_level=_concat(levels),
        size_flits=REQUEST_FLITS,
        name=profile.name,
    )


def generate_pair_trace(
    cpu_profile: BenchmarkProfile,
    gpu_profile: BenchmarkProfile,
    architecture: Optional[ArchitectureConfig] = None,
    duration: int = 20_000,
    seed: int = 1,
) -> Trace:
    """One CPU benchmark run simultaneously with one GPU benchmark."""
    if cpu_profile.core_type is not CoreType.CPU:
        raise ValueError(f"{cpu_profile.name} is not a CPU benchmark")
    if gpu_profile.core_type is not CoreType.GPU:
        raise ValueError(f"{gpu_profile.name} is not a GPU benchmark")
    cpu_trace = generate_trace(cpu_profile, architecture, duration, seed)
    gpu_trace = generate_trace(gpu_profile, architecture, duration, seed)
    return Trace.merge(
        [cpu_trace, gpu_trace],
        name=f"{cpu_profile.abbreviation}+{gpu_profile.abbreviation}",
    )


def uniform_random_trace(
    core_type: CoreType = CoreType.CPU,
    rate: float = 0.05,
    architecture: Optional[ArchitectureConfig] = None,
    duration: int = 5_000,
    seed: int = 1,
) -> Trace:
    """A plain uniform-random trace (unit tests and saturation sweeps)."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    architecture = architecture or ArchitectureConfig()
    rng = np.random.default_rng(seed)
    cycles: List[np.ndarray] = []
    sources: List[np.ndarray] = []
    destinations: List[np.ndarray] = []
    for router in range(architecture.num_clusters):
        inject_cycles = np.flatnonzero(rng.random(duration) < rate)
        destination = rng.integers(
            0, architecture.num_routers, size=inject_cycles.size
        )
        destination[destination == router] = architecture.l3_router_id
        cycles.append(inject_cycles)
        sources.append(np.full(inject_cycles.size, router))
        destinations.append(destination)
    level = (
        CacheLevel.CPU_L2_DOWN
        if core_type is CoreType.CPU
        else CacheLevel.GPU_L2_DOWN
    )
    return Trace.from_columns(
        cycle=_concat(cycles),
        source=_concat(sources),
        destination=_concat(destinations),
        core_type=CODE[core_type],
        packet_class=CODE[PacketClass.REQUEST],
        cache_level=CODE[level],
        size_flits=REQUEST_FLITS,
        name=f"uniform-{core_type.value}-{rate}",
    )


def hotspot_trace(
    hotspot_router: int = 0,
    rate: float = 0.05,
    hotspot_fraction: float = 0.6,
    architecture: Optional[ArchitectureConfig] = None,
    duration: int = 5_000,
    seed: int = 1,
) -> Trace:
    """A trace where one router receives a disproportionate share."""
    architecture = architecture or ArchitectureConfig()
    if not 0 <= hotspot_router < architecture.num_routers:
        raise ValueError("hotspot_router outside the network")
    rng = np.random.default_rng(seed)
    cycles: List[np.ndarray] = []
    sources: List[np.ndarray] = []
    destinations: List[np.ndarray] = []
    for router in range(architecture.num_clusters):
        if router == hotspot_router:
            continue
        inject_cycles = np.flatnonzero(rng.random(duration) < rate)
        to_hotspot = rng.random(inject_cycles.size) < hotspot_fraction
        fallback = architecture.l3_router_id
        if fallback == router:
            fallback = (router + 1) % architecture.num_clusters
        cycles.append(inject_cycles)
        sources.append(np.full(inject_cycles.size, router))
        destinations.append(np.where(to_hotspot, hotspot_router, fallback))
    return Trace.from_columns(
        cycle=_concat(cycles),
        source=_concat(sources),
        destination=_concat(destinations),
        core_type=CODE[CoreType.GPU],
        packet_class=CODE[PacketClass.REQUEST],
        cache_level=CODE[CacheLevel.GPU_L2_DOWN],
        size_flits=REQUEST_FLITS,
        name=f"hotspot-{hotspot_router}",
    )
