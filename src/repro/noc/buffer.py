"""Router input buffers.

PEARL routers keep two slot-accounted FIFO pools per router — one for CPU
traffic and one for GPU traffic — whose occupancies feed the dynamic
bandwidth allocator (Eq. 1-3 of the paper).  The CMESH baseline uses
per-port virtual-channel buffers instead (see :mod:`repro.noc.cmesh`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, Iterator, Optional

from .packet import CoreType, Flit, Packet


class BufferFullError(Exception):
    """Raised when a packet is pushed into a buffer without space."""


class InputBuffer:
    """A FIFO packet buffer accounted in 128-bit slots.

    A packet of ``size_flits`` flits occupies that many slots.  The
    occupancy fraction of this buffer is what Algorithm 1 calls
    ``beta_ocup`` for one core type.
    """

    __slots__ = ("capacity_slots", "name", "_queue", "_occupied_slots")

    def __init__(self, capacity_slots: int, name: str = "buffer") -> None:
        if capacity_slots <= 0:
            raise ValueError("buffer capacity must be positive")
        self.capacity_slots = capacity_slots
        self.name = name
        self._queue: Deque[Packet] = deque()
        self._occupied_slots = 0

    def __len__(self) -> int:
        return len(self._queue)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self._queue)

    @property
    def occupied_slots(self) -> int:
        """Number of 128-bit slots currently holding flits."""
        return self._occupied_slots

    @property
    def free_slots(self) -> int:
        """Remaining capacity in slots."""
        return self.capacity_slots - self._occupied_slots

    @property
    def occupancy(self) -> float:
        """Occupied fraction in [0, 1] — Algorithm 1's beta for this pool."""
        return self._occupied_slots / self.capacity_slots

    @property
    def is_empty(self) -> bool:
        """True when no packets are queued."""
        return not self._queue

    def can_accept(self, packet: Packet) -> bool:
        """Whether ``packet`` fits in the remaining slots."""
        return packet.size_flits <= self.free_slots

    def push(self, packet: Packet) -> None:
        """Enqueue a packet, raising :class:`BufferFullError` on overflow."""
        if not self.can_accept(packet):
            raise BufferFullError(
                f"{self.name}: {packet.size_flits} flits do not fit in "
                f"{self.free_slots} free slots"
            )
        self._queue.append(packet)
        self._occupied_slots += packet.size_flits

    def push_front(self, packet: Packet) -> None:
        """Enqueue at the head of the FIFO.

        Used by the CRC/NACK retransmission path so a retried packet
        resumes head-of-line rather than requeueing behind traffic that
        arrived after it.
        """
        if not self.can_accept(packet):
            raise BufferFullError(
                f"{self.name}: {packet.size_flits} flits do not fit in "
                f"{self.free_slots} free slots"
            )
        self._queue.appendleft(packet)
        self._occupied_slots += packet.size_flits

    def peek(self) -> Optional[Packet]:
        """The packet at the head of the FIFO without removing it."""
        return self._queue[0] if self._queue else None

    def pop(self) -> Packet:
        """Dequeue and return the head packet."""
        if not self._queue:
            raise IndexError(f"{self.name}: pop from empty buffer")
        packet = self._queue.popleft()
        self._occupied_slots -= packet.size_flits
        return packet

    def drain(self) -> Iterable[Packet]:
        """Remove and yield every queued packet (used at teardown)."""
        while self._queue:
            yield self.pop()


class PartitionedBuffer:
    """The CPU/GPU split buffer pool of one PEARL router.

    Exposes the two per-core-type occupancies that Algorithm 1 consumes
    and the combined occupancy used by the power-scaling window sum
    (``Buf_w`` in the paper's Eq. 3).
    """

    __slots__ = ("cpu", "gpu", "_total_slots")

    def __init__(self, cpu_slots: int, gpu_slots: int, name: str = "router") -> None:
        self.cpu = InputBuffer(cpu_slots, name=f"{name}/cpu")
        self.gpu = InputBuffer(gpu_slots, name=f"{name}/gpu")
        # Hoisted for the per-cycle combined-occupancy read.
        self._total_slots = cpu_slots + gpu_slots

    def pool(self, core_type: CoreType) -> InputBuffer:
        """The buffer pool that stores packets of ``core_type``."""
        return self.cpu if core_type is CoreType.CPU else self.gpu

    def can_accept(self, packet: Packet) -> bool:
        """Whether the packet's core-type pool has space."""
        return self.pool(packet.core_type).can_accept(packet)

    def push(self, packet: Packet) -> None:
        """Enqueue into the packet's core-type pool."""
        self.pool(packet.core_type).push(packet)

    @property
    def cpu_occupancy(self) -> float:
        """beta_ocup-CPU of Eq. 1."""
        return self.cpu.occupancy

    @property
    def gpu_occupancy(self) -> float:
        """beta_ocup-GPU of Eq. 2."""
        return self.gpu.occupancy

    @property
    def combined_occupancy(self) -> float:
        """Occupied fraction of all slots (Eq. 3, normalised to [0, 1])."""
        return (
            self.cpu._occupied_slots + self.gpu._occupied_slots
        ) / self._total_slots

    @property
    def total_packets(self) -> int:
        """Packets queued across both pools."""
        return len(self.cpu) + len(self.gpu)


class VirtualChannelBuffer:
    """One virtual channel of a CMESH input port (flit-granular FIFO)."""

    __slots__ = ("depth_flits", "name", "_flits", "allocated_packet_id")

    def __init__(self, depth_flits: int, name: str = "vc") -> None:
        if depth_flits <= 0:
            raise ValueError("VC depth must be positive")
        self.depth_flits = depth_flits
        self.name = name
        self._flits: Deque[Flit] = deque()
        # The packet this VC is currently assigned to (wormhole allocation):
        self.allocated_packet_id: Optional[int] = None

    def __len__(self) -> int:
        return len(self._flits)

    @property
    def free_flits(self) -> int:
        """Remaining flit slots."""
        return self.depth_flits - len(self._flits)

    @property
    def is_empty(self) -> bool:
        """True when the VC holds no flits."""
        return not self._flits

    @property
    def is_idle(self) -> bool:
        """True when the VC is empty and not allocated to a packet."""
        return self.is_empty and self.allocated_packet_id is None

    def can_accept(self, flit: Flit) -> bool:
        """Flit fits and belongs to this VC's packet (or the VC is idle)."""
        if self.free_flits < 1:
            return False
        if self.allocated_packet_id is None:
            return flit.is_head
        return flit.packet.packet_id == self.allocated_packet_id

    def push(self, flit: Flit) -> None:
        """Enqueue a flit, allocating the VC on a head flit."""
        if not self.can_accept(flit):
            raise BufferFullError(f"{self.name}: cannot accept flit")
        if flit.is_head:
            self.allocated_packet_id = flit.packet.packet_id
        self._flits.append(flit)

    def peek(self) -> Optional[Flit]:
        """Head flit without removing it."""
        return self._flits[0] if self._flits else None

    def pop(self) -> Flit:
        """Dequeue the head flit, releasing the VC after the tail flit."""
        if not self._flits:
            raise IndexError(f"{self.name}: pop from empty VC")
        flit = self._flits.popleft()
        if flit.is_tail:
            self.allocated_packet_id = None
        return flit
