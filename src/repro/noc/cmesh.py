"""Electrical concentrated-mesh (CMESH) baseline (Sec. IV).

A 4x4 mesh of wormhole virtual-channel routers, each concentrating one
cluster (2 CPUs + 4 CUs with their caches).  Per the paper: 4 VCs per
input port, 4 buffer slots per VC, 128-bit flits, XY dimension-order
routing.  The L3 is distributed over the four centre routers, selected
by address interleaving, so PEARL traces (whose L3 destination is the
extra crossbar router) map onto the mesh transparently.

``bandwidth_divisor`` narrows every link proportionally, which is how
the paper makes CMESH "comparable" to the 32- and 16-wavelength PEARL
configurations in Fig. 5.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cache.memory import MemoryController
from ..config import (
    CMeshConfig,
    ElectricalPowerConfig,
    SimulationConfig,
)
from .buffer import VirtualChannelBuffer
from .packet import Flit, Packet
from .responder import ResponderConfig, build_response
from .stats import NetworkStats
from ..traffic.trace import Trace, TraceCursor

#: Mesh routers hosting an L3 bank (the four centre nodes of the 4x4).
L3_BANK_ROUTERS = (5, 6, 9, 10)

#: Port indices.
NORTH, EAST, SOUTH, WEST, LOCAL = range(5)
_OPPOSITE = {NORTH: SOUTH, SOUTH: NORTH, EAST: WEST, WEST: EAST}

#: Flits the local port can eject per cycle.
EJECT_PER_CYCLE = 2


def l3_bank_for(packet: Packet) -> int:
    """Address-interleaved L3 bank router for a packet.

    Keyed on stable packet attributes (not the process-global packet id)
    so repeated runs over the same trace pick the same banks.
    """
    key = packet.source * 131 + packet.created_cycle * 7 + packet.size_flits
    return L3_BANK_ROUTERS[key % len(L3_BANK_ROUTERS)]


@dataclass
class _OutputPort:
    """State of one router output: wormhole owner + downstream VC."""

    owner: Optional[Tuple[int, int]] = None  # (input port, vc index)
    downstream_vc: int = -1
    busy_until: int = 0
    rr_pointer: int = 0


class CMeshRouter:
    """One wormhole VC router of the concentrated mesh."""

    def __init__(self, router_id: int, config: CMeshConfig) -> None:
        self.router_id = router_id
        self.config = config
        self.x = router_id % config.mesh_width
        self.y = router_id // config.mesh_width
        self.inputs: List[List[VirtualChannelBuffer]] = [
            [
                VirtualChannelBuffer(
                    config.buffers_per_vc,
                    name=f"r{router_id}/p{port}/vc{vc}",
                )
                for vc in range(config.virtual_channels)
            ]
            for port in range(5)
        ]
        self.outputs: List[_OutputPort] = [_OutputPort() for _ in range(5)]
        # Packets waiting to enter the local input port.
        self.injection_queue: List[Packet] = []
        self._inject_cursor: Optional[Tuple[Packet, int]] = None  # packet, flit idx
        self.flits_routed = 0

    def route(self, destination_router: int) -> int:
        """XY dimension-order routing: X first, then Y."""
        dx = (destination_router % self.config.mesh_width) - self.x
        dy = (destination_router // self.config.mesh_width) - self.y
        if dx > 0:
            return EAST
        if dx < 0:
            return WEST
        if dy > 0:
            return SOUTH
        if dy < 0:
            return NORTH
        return LOCAL

    def neighbor(self, port: int) -> Optional[int]:
        """Router id across ``port`` (None at the mesh edge)."""
        if port == NORTH and self.y > 0:
            return self.router_id - self.config.mesh_width
        if port == SOUTH and self.y < self.config.mesh_height - 1:
            return self.router_id + self.config.mesh_width
        if port == EAST and self.x < self.config.mesh_width - 1:
            return self.router_id + 1
        if port == WEST and self.x > 0:
            return self.router_id - 1
        return None

    def buffer_occupancy(self) -> float:
        """Mean occupied fraction across all input VCs (diagnostics)."""
        total = sum(
            len(vc)
            for port in self.inputs
            for vc in port
        )
        capacity = 5 * self.config.virtual_channels * self.config.buffers_per_vc
        return total / capacity


class CMeshNetwork:
    """The full electrical CMESH simulator (paper baseline)."""

    def __init__(
        self,
        config: Optional[CMeshConfig] = None,
        power: Optional[ElectricalPowerConfig] = None,
        simulation: Optional[SimulationConfig] = None,
        responder: Optional[ResponderConfig] = None,
        bandwidth_divisor: int = 2,
        seed: int = 1,
    ) -> None:
        self.config = config or CMeshConfig()
        self.power = power or ElectricalPowerConfig()
        self.simulation = simulation or SimulationConfig()
        self.responder = responder or ResponderConfig()
        if bandwidth_divisor <= 0:
            raise ValueError("bandwidth_divisor must be positive")
        self.bandwidth_divisor = bandwidth_divisor
        self._rng = np.random.default_rng(seed)
        self.routers = [
            CMeshRouter(i, self.config) for i in range(self.config.num_routers)
        ]
        #: Router id used as the "L3" source/destination in PEARL traces.
        self.l3_alias = self.config.num_routers
        self.stats = NetworkStats()
        self.memory = MemoryController()
        self._responses: List[Tuple[int, int, int, Packet]] = []
        self._sequence = 0
        self._flit_hops = 0
        self._router_traversals = 0
        # Packets partially ejected: packet_id -> flits seen.
        self._eject_progress: Dict[int, int] = {}
        self._local_deliveries: List[Tuple[int, int, Packet]] = []

    # -- destination mapping --------------------------------------------------

    def _map_destination(self, packet: Packet) -> int:
        if packet.destination == self.l3_alias:
            return l3_bank_for(packet)
        return packet.destination

    # -- responder ---------------------------------------------------------------

    def _schedule_response(self, request: Packet, cycle: int) -> None:
        ready, row = build_response(
            request.source,
            request.destination,
            request.core_type,
            request.created_cycle,
            cycle,
            self.responder,
            self._rng,
            self.memory,
            self.l3_alias,
        )
        self._sequence += 1
        heapq.heappush(
            self._responses, (ready, self._sequence, row[0], Packet(*row))
        )

    def _on_delivered(self, packet: Packet, cycle: int) -> None:
        self.stats.on_delivered(packet, cycle)
        if packet.is_request:
            self._schedule_response(packet, cycle)

    # -- injection ------------------------------------------------------------------

    def _inject_packet(self, packet: Packet, cycle: int) -> None:
        """Queue a packet at its (mapped) source router."""
        source = packet.source
        if source == self.l3_alias:
            source = l3_bank_for(packet)
        if packet.is_local:
            # Local L1<->L2 traffic bypasses the mesh entirely.
            self._sequence += 1
            heapq.heappush(
                self._local_deliveries,
                (cycle + 2, self._sequence, packet),
            )
            self.stats.on_injected(packet)
            return
        packet.injected_cycle = cycle
        self.routers[source].injection_queue.append(packet)
        self.stats.on_injected(packet)

    def _feed_local_port(self, router: CMeshRouter) -> None:
        """Move flits from the injection queue into local-port VCs."""
        while True:
            if router._inject_cursor is None:
                if not router.injection_queue:
                    return
                packet = router.injection_queue[0]
                vcs = router.inputs[LOCAL]
                vc = next((v for v in vcs if v.is_idle), None)
                if vc is None:
                    return
                router._inject_cursor = (packet, 0)
            packet, index = router._inject_cursor
            flits = list(packet.flits())
            vcs = router.inputs[LOCAL]
            target = next(
                (
                    v
                    for v in vcs
                    if v.allocated_packet_id == packet.packet_id
                    or (index == 0 and v.is_idle)
                ),
                None,
            )
            if target is None:
                return
            moved = False
            while index < len(flits) and target.can_accept(flits[index]):
                target.push(flits[index])
                index += 1
                moved = True
            if index >= len(flits):
                router.injection_queue.pop(0)
                router._inject_cursor = None
            else:
                router._inject_cursor = (packet, index)
                if not moved:
                    return
                return

    # -- one simulation cycle -------------------------------------------------------

    def step(self, cycle: int, cursor: Optional[TraceCursor] = None) -> None:
        """Advance the mesh by one cycle."""
        # 1. Responses and trace events.
        while self._responses and self._responses[0][0] <= cycle:
            _, _, _, packet = heapq.heappop(self._responses)
            self._inject_packet(packet, cycle)
        if cursor is not None:
            for packet in cursor.pop_packets(cycle):
                self._inject_packet(packet, cycle)
        # 2. Local (intra-cluster) deliveries.
        while self._local_deliveries and self._local_deliveries[0][0] <= cycle:
            _, _, packet = heapq.heappop(self._local_deliveries)
            self._on_delivered(packet, cycle)
        # 3. Feed injection flits into local ports.
        for router in self.routers:
            self._feed_local_port(router)
        # 4. Switch allocation + traversal, two-phase for order independence.
        moves: List[Tuple[CMeshRouter, int, Flit, Optional[CMeshRouter], int]] = []
        for router in self.routers:
            self._allocate(router, cycle, moves)
        for router, out_port, flit, downstream, down_vc in moves:
            self._apply_move(router, out_port, flit, downstream, down_vc, cycle)
        # 5. Link-utilization sample (mean over all routers).
        busy = any(
            output.busy_until > cycle
            for router in self.routers
            for output in router.outputs[:4]
        )
        self.stats.on_link_sample(busy)

    def _allocate(
        self,
        router: CMeshRouter,
        cycle: int,
        moves: List,
    ) -> None:
        eject_budget = EJECT_PER_CYCLE
        for out_port_idx in range(5):
            output = router.outputs[out_port_idx]
            if cycle < output.busy_until:
                continue
            downstream_id = router.neighbor(out_port_idx)
            downstream = (
                self.routers[downstream_id] if downstream_id is not None else None
            )
            if out_port_idx != LOCAL and downstream is None:
                continue
            candidates = self._candidates(router, out_port_idx)
            if not candidates:
                continue
            # Round-robin among candidate (port, vc) pairs.
            candidates.sort(
                key=lambda pv: (pv[0] * 16 + pv[1] - output.rr_pointer) % 128
            )
            for in_port, vc_idx in candidates:
                vc = router.inputs[in_port][vc_idx]
                flit = vc.peek()
                assert flit is not None
                if out_port_idx == LOCAL:
                    if eject_budget <= 0:
                        break
                    if output.owner is None and not flit.is_head:
                        continue
                    if (
                        output.owner is not None
                        and output.owner != (in_port, vc_idx)
                    ):
                        continue
                    eject_budget -= 1
                    moves.append((router, out_port_idx, vc.pop(), None, -1))
                    self._update_owner(output, in_port, vc_idx, flit)
                    output.rr_pointer = in_port * 16 + vc_idx + 1
                    break
                # Mesh output: need wormhole ownership + downstream VC space.
                assert downstream is not None
                down_port = _OPPOSITE[out_port_idx]
                if output.owner is None:
                    if not flit.is_head:
                        continue
                    down_vc_idx = next(
                        (
                            i
                            for i, dvc in enumerate(
                                downstream.inputs[down_port]
                            )
                            if dvc.is_idle
                        ),
                        None,
                    )
                    if down_vc_idx is None:
                        continue
                elif output.owner == (in_port, vc_idx):
                    down_vc_idx = output.downstream_vc
                    dvc = downstream.inputs[down_port][down_vc_idx]
                    if dvc.free_flits < 1:
                        continue
                else:
                    continue
                moves.append(
                    (router, out_port_idx, vc.pop(), downstream, down_vc_idx)
                )
                self._update_owner(output, in_port, vc_idx, flit)
                output.downstream_vc = down_vc_idx
                output.busy_until = cycle + self.bandwidth_divisor
                output.rr_pointer = in_port * 16 + vc_idx + 1
                break

    def _candidates(
        self, router: CMeshRouter, out_port_idx: int
    ) -> List[Tuple[int, int]]:
        found: List[Tuple[int, int]] = []
        for in_port in range(5):
            for vc_idx, vc in enumerate(router.inputs[in_port]):
                flit = vc.peek()
                if flit is None:
                    continue
                destination = self._map_destination(flit.packet)
                if router.route(destination) == out_port_idx:
                    found.append((in_port, vc_idx))
        return found

    @staticmethod
    def _update_owner(
        output: _OutputPort, in_port: int, vc_idx: int, flit: Flit
    ) -> None:
        if flit.is_head:
            output.owner = (in_port, vc_idx)
        if flit.is_tail:
            output.owner = None
            output.downstream_vc = -1

    def _apply_move(
        self,
        router: CMeshRouter,
        out_port: int,
        flit: Flit,
        downstream: Optional[CMeshRouter],
        down_vc: int,
        cycle: int,
    ) -> None:
        self._router_traversals += 1
        if out_port == LOCAL:
            packet = flit.packet
            seen = self._eject_progress.get(packet.packet_id, 0) + 1
            if flit.is_tail:
                self._eject_progress.pop(packet.packet_id, None)
                self._on_delivered(packet, cycle)
            else:
                self._eject_progress[packet.packet_id] = seen
            return
        assert downstream is not None
        self._flit_hops += 1
        downstream.inputs[_OPPOSITE[out_port]][down_vc].push(flit)

    # -- full run ----------------------------------------------------------------------

    def run(self, trace: Trace) -> NetworkStats:
        """Simulate warm-up plus measurement over a trace."""
        # PEARL traces address the mesh routers plus the L3 alias.
        trace.check_routers(self.l3_alias + 1)
        sim = self.simulation
        cursor = TraceCursor(trace)
        for cycle in range(sim.warmup_cycles):
            self.step(cycle, cursor)
        self.stats.begin_measurement(sim.warmup_cycles)
        self._flit_hops = 0
        self._router_traversals = 0
        for cycle in range(sim.warmup_cycles, sim.total_cycles):
            self.step(cycle, cursor)
        self.stats.finish(sim.total_cycles)
        self._integrate_energy()
        return self.stats

    def _integrate_energy(self) -> None:
        cycle_s = 1.0 / 2e9
        dynamic = (
            self._router_traversals * self.power.router_energy_pj_per_flit
            + self._flit_hops * self.power.link_energy_pj_per_flit_per_hop
        ) * 1e-12
        static = (
            self.power.static_power_w_per_router
            * self.config.num_routers
            * self.stats.measured_cycles
            * cycle_s
        )
        self.stats.electrical_energy_j = dynamic + static
