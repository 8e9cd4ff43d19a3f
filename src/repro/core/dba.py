"""Dynamic bandwidth allocation — Algorithm 1, steps 1-5.

Each cycle every router computes the CPU and GPU input-buffer occupancy
(Eq. 1-2) and splits its link bandwidth between the two core types:

* one side idle → the other side gets 100% (steps 3a/3b);
* GPU occupancy under its upper bound → CPU 75% / GPU 25% (step 3c,
  CPU gets precedence because of its latency sensitivity);
* CPU occupancy under its upper bound → CPU 25% / GPU 75% (step 3d);
* otherwise an even 50/50 split (step 3e).

The paper's brute-force search fixed the upper bounds at 16% (CPU) and
6% (GPU) of the respective buffer space, with a 25% step granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..config import DBAConfig
from ..noc.buffer import PartitionedBuffer
from ..noc.packet import CoreType
from .wavelength import BandwidthAllocation


def remap_wavelengths(
    allocation: BandwidthAllocation, surviving: Sequence[int]
) -> Dict[CoreType, Tuple[int, ...]]:
    """Re-run a CPU/GPU split over an explicit surviving-wavelength set.

    When ring-trimming drift disables individual wavelengths (see
    :mod:`repro.faults`), the allocator's fractions are re-applied to
    the rings that survive: CPU takes the low end, GPU the high end,
    each side rounded to whole rings but guaranteed at least one ring
    while its fraction is nonzero.  Every returned index is drawn from
    ``surviving``, so a disabled ring is never assigned — the property
    the resilience test-suite pins.
    """
    rings = tuple(sorted(surviving))
    count = len(rings)
    if count == 0:
        return {CoreType.CPU: (), CoreType.GPU: ()}
    if allocation.gpu_fraction == 0.0:
        cpu_count = count if allocation.cpu_fraction > 0.0 else 0
    elif allocation.cpu_fraction == 0.0:
        cpu_count = 0
    else:
        cpu_count = int(round(allocation.cpu_fraction * count))
        cpu_count = min(max(cpu_count, 1), count - 1)
    return {
        CoreType.CPU: rings[:cpu_count],
        CoreType.GPU: rings[cpu_count:],
    }


@dataclass(frozen=True)
class OccupancySample:
    """One cycle's occupancy reading used by the allocator."""

    cpu: float
    gpu: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.cpu <= 1.0 or not 0.0 <= self.gpu <= 1.0:
            raise ValueError("occupancies must be fractions in [0, 1]")

    @property
    def combined(self) -> float:
        """Buf_w of Eq. 3 normalised to [0, 1] for equal pool sizes."""
        return (self.cpu + self.gpu) / 2.0


class DynamicBandwidthAllocator:
    """Per-router local bandwidth allocator (no global coordination).

    The allocator is purely combinational: it maps the current occupancy
    sample to a :class:`BandwidthAllocation`.  A step granularity other
    than 25% changes the asymmetric splits (e.g. 12.5% yields 87.5/12.5).
    """

    def __init__(self, config: DBAConfig) -> None:
        self.config = config
        self._minor = config.bandwidth_step
        self._major = 1.0 - config.bandwidth_step
        # The five possible outcomes, built once (this runs every cycle
        # on every router).
        self._all_cpu = BandwidthAllocation(cpu_fraction=1.0, gpu_fraction=0.0)
        self._all_gpu = BandwidthAllocation(cpu_fraction=0.0, gpu_fraction=1.0)
        self._cpu_major = BandwidthAllocation(
            cpu_fraction=self._major, gpu_fraction=self._minor
        )
        self._gpu_major = BandwidthAllocation(
            cpu_fraction=self._minor, gpu_fraction=self._major
        )
        self._even = BandwidthAllocation.even_split()
        # Stable outcome labels for telemetry (BandwidthAllocation is a
        # frozen dataclass, so the allocations key a dict by value).
        self.split_labels = {
            self._all_cpu: "all_cpu",
            self._all_gpu: "all_gpu",
            self._cpu_major: "cpu_major",
            self._gpu_major: "gpu_major",
            self._even: "even",
        }
        self._by_label = {
            label: alloc for alloc, label in self.split_labels.items()
        }
        # D3NOC window-scale reconfiguration: when pinned, the per-cycle
        # combinational decision is bypassed until the next window close
        # re-pins.  Always one of the five canonical instances, so a
        # pinned split carries its telemetry label.
        self._pinned: Optional[BandwidthAllocation] = None

    def sample(self, buffers: PartitionedBuffer) -> OccupancySample:
        """Read Eq. 1-2 occupancies from a router's buffer pools."""
        return OccupancySample(
            cpu=buffers.cpu_occupancy, gpu=buffers.gpu_occupancy
        )

    @property
    def pinned(self) -> Optional[BandwidthAllocation]:
        """The active window-pinned split, or None when combinational."""
        return self._pinned

    @property
    def pinned_label(self) -> Optional[str]:
        """Telemetry label of the pinned split, or None."""
        return None if self._pinned is None else self.split_labels[self._pinned]

    def pin_split(self, label: Optional[str]) -> None:
        """Pin every allocation to one canonical split until re-pinned.

        ``label`` is a key of :attr:`split_labels` (``"even"``,
        ``"cpu_major"``, ...); ``None`` restores the per-cycle
        Algorithm 1 decision.
        """
        if label is None:
            self._pinned = None
            return
        try:
            self._pinned = self._by_label[label]
        except KeyError:
            raise ValueError(f"unknown split label {label!r}")

    def allocate(self, occupancy: OccupancySample) -> BandwidthAllocation:
        """Algorithm 1 step 3: map occupancies to a bandwidth split."""
        if self._pinned is not None:
            return self._pinned
        return self.decide(occupancy.cpu, occupancy.gpu)

    def decide(self, cpu: float, gpu: float) -> BandwidthAllocation:
        """Algorithm 1 step 3 on two occupancy fractions, ignoring pins."""
        if gpu == 0.0 and cpu > 0.0:
            return self._all_cpu
        if cpu == 0.0 and gpu > 0.0:
            return self._all_gpu
        if gpu < self.config.gpu_upper_bound:
            return self._cpu_major
        if cpu < self.config.cpu_upper_bound:
            return self._gpu_major
        return self._even

    def allocate_from_buffers(
        self, buffers: PartitionedBuffer
    ) -> BandwidthAllocation:
        """Sample and allocate in one call (what a router does per cycle)."""
        if self._pinned is not None:
            return self._pinned
        return self.decide(buffers.cpu_occupancy, buffers.gpu_occupancy)


class FCFSAllocator:
    """PEARL-FCFS baseline: a static even split with no reconfiguration.

    The paper's first-come-first-serve variant shares the 64-wavelength
    link without demand awareness; we model it as a fixed 50/50 split so
    a flooding GPU can stall its half while the CPU half idles (and vice
    versa), which is exactly the inefficiency PEARL-Dyn removes.
    """

    def __init__(self, config: DBAConfig) -> None:
        self.config = config
        # One canonical instance (this runs every cycle on every router).
        self._even = BandwidthAllocation.even_split()
        self.split_labels = {self._even: "even"}

    @property
    def pinned(self) -> Optional[BandwidthAllocation]:
        """FCFS never reconfigures; present for allocator-interface parity."""
        return None

    @property
    def pinned_label(self) -> Optional[str]:
        return None

    def pin_split(self, label: Optional[str]) -> None:
        """No-op: the FCFS baseline has no reconfigurable split."""

    def sample(self, buffers: PartitionedBuffer) -> OccupancySample:
        """Occupancy reading (collected for statistics only)."""
        return OccupancySample(
            cpu=buffers.cpu_occupancy, gpu=buffers.gpu_occupancy
        )

    def allocate(self, occupancy: OccupancySample) -> BandwidthAllocation:
        """Always the even split, regardless of demand."""
        return self._even

    def allocate_from_buffers(
        self, buffers: PartitionedBuffer
    ) -> BandwidthAllocation:
        """Return the static split regardless of the buffers' demand.

        This runs every cycle on every router, so no occupancy sample
        object is materialised — callers wanting the reading use
        :meth:`sample` directly.
        """
        return self._even
