"""Token-arbitrated MWSR photonic crossbar (Corona-style baseline).

The related work PEARL argues against (Sec. II-A): multiple-writer
single-reader channels, one per *destination*, where a token circulates
among the writers and a source may only modulate the channel while it
holds the token.  Compared with PEARL's reservation-assisted SWMR this
adds token-acquisition latency (on average half a rotation when idle)
and serialises all traffic to one destination on a single channel.

The model shares PEARL's buffers, responder policy and statistics so
the two crossbars differ only in their media-access mechanism.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..cache.memory import MemoryController
from ..config import PearlConfig
from ..core.wavelength import WavelengthLadder
from .buffer import PartitionedBuffer
from .network import ResponderConfig
from .packet import CoreType, Packet
from .responder import build_response
from .stats import NetworkStats
from ..traffic.trace import Trace, TraceCursor

#: Pipeline overhead outside serialization (E/O, propagation, O/E).
MWSR_OVERHEAD_CYCLES = 3

#: Local crossbar latency for intra-cluster packets.
LOCAL_CROSSBAR_CYCLES = 2


@dataclass
class TokenChannel:
    """One destination's MWSR channel with a circulating token."""

    destination: int
    num_sources: int
    token_at: int = 0
    busy_until: int = 0
    holder: Optional[int] = None
    token_waits: int = 0

    def advance(self, cycle: int) -> None:
        """Rotate the token one source per cycle while unheld and idle."""
        if self.holder is None and cycle >= self.busy_until:
            self.token_at = (self.token_at + 1) % self.num_sources

    def try_acquire(self, source: int, cycle: int) -> bool:
        """A source grabs the channel if the token is at it and idle."""
        if self.holder is None and cycle >= self.busy_until:
            if self.token_at == source:
                self.holder = source
                return True
            self.token_waits += 1
        return False

    def release(self, cycle: int, busy_cycles: int) -> None:
        """Finish a transmission: hold the channel, pass the token on."""
        self.busy_until = cycle + busy_cycles
        self.holder = None
        self.token_at = (self.token_at + 1) % self.num_sources


class MwsrNetwork:
    """Token-MWSR photonic crossbar with PEARL's cluster organisation.

    Runs at a fixed wavelength state (default the full 64) — the point
    of this baseline is the arbitration comparison, not power scaling.
    """

    def __init__(
        self,
        config: Optional[PearlConfig] = None,
        static_state: int = 64,
        responder: Optional[ResponderConfig] = None,
        l3_parallel_channels: int = 8,
        seed: int = 1,
    ) -> None:
        self.config = config or PearlConfig()
        self.responder = responder or ResponderConfig()
        arch = self.config.architecture
        self.ladder = WavelengthLadder(self.config.photonic)
        if static_state not in self.ladder.states:
            raise ValueError(f"unknown wavelength state {static_state}")
        self.state = static_state
        self._rng = np.random.default_rng(seed)
        self.memory = MemoryController(
            num_controllers=arch.memory_controllers,
            line_bytes=arch.cache_line_bytes,
        )
        num_routers = arch.num_routers
        self.buffers = [
            PartitionedBuffer(
                self.config.dba.cpu_buffer_slots,
                self.config.dba.gpu_buffer_slots,
                name=f"mwsr-r{i}",
            )
            for i in range(num_routers)
        ]
        # One token channel per destination; the L3 gets parallel
        # channels (same banked-L3 assumption as the PEARL model).
        self.channels: List[List[TokenChannel]] = []
        for destination in range(num_routers):
            count = (
                l3_parallel_channels
                if destination == arch.l3_router_id
                else 1
            )
            self.channels.append(
                [
                    TokenChannel(destination, num_routers)
                    for _ in range(count)
                ]
            )
        self.stats = NetworkStats()
        self._in_flight: List[Tuple[int, int, Packet]] = []
        self._responses: List[Tuple[int, int, int, Packet]] = []
        self._sequence = 0
        from collections import deque

        self._backlog = [deque() for _ in range(num_routers)]

    # -- helpers -------------------------------------------------------------

    def _try_inject(self, packet: Packet, cycle: int) -> bool:
        buffers = self.buffers[packet.source]
        if buffers.can_accept(packet):
            packet.injected_cycle = cycle
            buffers.push(packet)
            self.stats.on_injected(packet)
            return True
        return False

    def _serialization_cycles(self, packet: Packet) -> int:
        return self.ladder.serialization_cycles(self.state) * packet.size_flits

    def _deliver(self, packet: Packet, cycle: int) -> None:
        self.stats.on_delivered(packet, cycle)
        if packet.is_request:
            ready, response = build_response(
                packet,
                cycle,
                self.responder,
                self._rng,
                self.memory,
                self.config.architecture.l3_router_id,
                self.config.architecture.cache_line_bytes,
            )
            self._sequence += 1
            heapq.heappush(
                self._responses,
                (ready, self._sequence, response.source, response),
            )

    # -- one cycle --------------------------------------------------------------

    def step(self, cycle: int, cursor: Optional[TraceCursor] = None) -> None:
        """Advance the crossbar by one cycle."""
        # 1. Injections: backlog first, then responses, then the trace.
        for source, backlog in enumerate(self._backlog):
            while backlog and self._try_inject(backlog[0], cycle):
                backlog.popleft()
        while self._responses and self._responses[0][0] <= cycle:
            _, _, source, packet = heapq.heappop(self._responses)
            if self._backlog[source] or not self._try_inject(packet, cycle):
                self._backlog[source].append(packet)
        if cursor is not None:
            for packet in cursor.pop_packets(cycle):
                if self._backlog[packet.source] or not self._try_inject(
                    packet, cycle
                ):
                    self._backlog[packet.source].append(packet)
        # 2. Arbitration + transmission: heads contend for tokens.
        busy = False
        for source, buffers in enumerate(self.buffers):
            for core_type in (CoreType.CPU, CoreType.GPU):
                pool = buffers.pool(core_type)
                head = pool.peek()
                if head is None:
                    continue
                if head.is_local:
                    pool.pop()
                    self._sequence += 1
                    heapq.heappush(
                        self._in_flight,
                        (
                            cycle + LOCAL_CROSSBAR_CYCLES,
                            self._sequence,
                            head,
                        ),
                    )
                    continue
                channels = self.channels[head.destination]
                channel = next(
                    (c for c in channels if c.try_acquire(source, cycle)),
                    None,
                )
                if channel is None:
                    continue
                pool.pop()
                serialize = self._serialization_cycles(head)
                channel.release(cycle, serialize)
                busy = True
                self._sequence += 1
                heapq.heappush(
                    self._in_flight,
                    (
                        cycle + serialize + MWSR_OVERHEAD_CYCLES,
                        self._sequence,
                        head,
                    ),
                )
        self.stats.on_link_sample(busy)
        # 3. Token rotation on idle channels.
        for channels in self.channels:
            for channel in channels:
                channel.advance(cycle)
        # 4. Arrivals.
        while self._in_flight and self._in_flight[0][0] <= cycle:
            _, _, packet = heapq.heappop(self._in_flight)
            self._deliver(packet, cycle)

    def run(self, trace: Trace) -> NetworkStats:
        """Simulate warm-up plus measurement over a trace."""
        trace.check_routers(len(self.buffers))
        sim = self.config.simulation
        cursor = TraceCursor(trace)
        for cycle in range(sim.warmup_cycles):
            self.step(cycle, cursor)
        self.stats.begin_measurement(sim.warmup_cycles)
        for cycle in range(sim.warmup_cycles, sim.total_cycles):
            self.step(cycle, cursor)
        self.stats.finish(sim.total_cycles)
        # Constant-state laser power across every channel.
        cycle_s = 1.0 / (
            self.config.architecture.network_frequency_ghz * 1e9
        )
        num_channels = sum(len(c) for c in self.channels)
        self.stats.laser_energy_j = (
            self.ladder.power_w(self.state)
            * num_channels
            * self.stats.measured_cycles
            * cycle_s
        )
        return self.stats

    def total_token_waits(self) -> int:
        """Cycles sources spent waiting for tokens (arbitration cost)."""
        return sum(
            channel.token_waits
            for channels in self.channels
            for channel in channels
        )
