"""Trace characterisation: burstiness, load balance, temporal structure.

The paper's premise is qualitative — "GPUs tend to overwhelm the
network with memory requests that are bursty in nature" — so the
library ships the metrics that make it checkable on any trace:

* index of dispersion for counts (IDC): variance/mean of per-window
  injection counts — 1 for Poisson, >> 1 for bursty traffic;
* peak-to-mean ratio of windowed rates;
* lag-1 autocorrelation of windowed counts (burst persistence);
* per-source load imbalance (max/mean across routers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..noc.packet import CoreType
from .trace import CODE, Trace


def windowed_counts(
    trace: Trace,
    window: int = 500,
    core_type: Optional[CoreType] = None,
    source: Optional[int] = None,
) -> np.ndarray:
    """Injection counts per fixed window, optionally filtered."""
    if window <= 0:
        raise ValueError("window must be positive")
    cycles, sources, _, cores, *_ = trace.columns
    keep = np.ones(cycles.size, dtype=bool)
    if core_type is not None:
        keep &= cores == CODE[core_type]
    if source is not None:
        keep &= sources == source
    cycles = cycles[keep]
    if cycles.size == 0:
        return np.zeros(0, dtype=int)
    return np.bincount(cycles // window)


def index_of_dispersion(counts: np.ndarray) -> float:
    """Variance-to-mean ratio of windowed counts (1 = Poisson)."""
    counts = np.asarray(counts, dtype=float)
    if counts.size == 0 or counts.mean() == 0:
        return 0.0
    return float(counts.var() / counts.mean())


def peak_to_mean(counts: np.ndarray) -> float:
    """Peak window rate over the mean window rate."""
    counts = np.asarray(counts, dtype=float)
    if counts.size == 0 or counts.mean() == 0:
        return 0.0
    return float(counts.max() / counts.mean())


def lag1_autocorrelation(counts: np.ndarray) -> float:
    """Lag-1 autocorrelation of windowed counts (burst persistence)."""
    counts = np.asarray(counts, dtype=float)
    if counts.size < 3:
        return 0.0
    a, b = counts[:-1], counts[1:]
    sa, sb = a.std(), b.std()
    if sa == 0 or sb == 0:
        return 0.0
    return float(((a - a.mean()) * (b - b.mean())).mean() / (sa * sb))


def per_source_idc(
    trace: Trace,
    window: int = 500,
    core_type: Optional[CoreType] = None,
    num_sources: int = 16,
) -> float:
    """Mean per-router index of dispersion.

    Chip-wide counts hide per-router burstiness: independent kernel
    bursts average out across sixteen routers, while a global phase
    change moves every router together.  Power scaling acts per router,
    so this is the IDC that matters for the controllers.
    """
    values = []
    for source in range(num_sources):
        counts = windowed_counts(
            trace, window=window, core_type=core_type, source=source
        )
        if counts.size:
            values.append(index_of_dispersion(counts))
    return float(np.mean(values)) if values else 0.0


def load_imbalance(trace: Trace, num_sources: int = 16) -> float:
    """Max-over-mean per-source injection counts (1 = perfectly even)."""
    if num_sources <= 0:
        raise ValueError("num_sources must be positive")
    sources = trace.columns[1]
    counts = np.bincount(
        sources[sources < num_sources], minlength=num_sources
    ).astype(float)
    if counts.sum() == 0:
        return 0.0
    return float(counts.max() / counts.mean())


@dataclass(frozen=True)
class TraceCharacter:
    """Summary metrics of one (filtered) trace."""

    events: int
    mean_rate_per_cycle: float
    idc: float
    peak_to_mean: float
    lag1_autocorrelation: float

    def is_bursty(self, idc_threshold: float = 2.0) -> bool:
        """Heuristic burstiness verdict (IDC well above Poisson)."""
        return self.idc > idc_threshold


def characterize(
    trace: Trace,
    window: int = 500,
    core_type: Optional[CoreType] = None,
) -> TraceCharacter:
    """Compute the summary character of a trace (or one core type)."""
    counts = windowed_counts(trace, window=window, core_type=core_type)
    events = int(counts.sum())
    horizon = counts.size * window
    return TraceCharacter(
        events=events,
        mean_rate_per_cycle=events / horizon if horizon else 0.0,
        idc=index_of_dispersion(counts),
        peak_to_mean=peak_to_mean(counts),
        lag1_autocorrelation=lag1_autocorrelation(counts),
    )


def compare_core_types(
    trace: Trace, window: int = 500
) -> Dict[str, TraceCharacter]:
    """Per-core-type characters of a pair trace (CPU vs GPU)."""
    return {
        core_type.value: characterize(trace, window, core_type)
        for core_type in (CoreType.CPU, CoreType.GPU)
    }
