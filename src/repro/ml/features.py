"""The 30-feature vector of Table III, collected per router per window.

Feature order matches Table III exactly:

 1. L3 router (binary)
 2. CPU core input-buffer utilization (window mean)
 3. Other-router CPU input-buffer utilization (window mean)
 4. GPU core input-buffer utilization (window mean)
 5. Other-router GPU input-buffer utilization (window mean)
 6. Outgoing link utilization (busy fraction of the window)
 7. Number of packets sent to a core (delivered locally)
 8. Incoming packets from other routers
 9. Incoming packets from the cores (injected locally)
10. Requests sent           11. Requests received
12. Responses sent          13. Responses received
14-21. Requests per cache level (CPU L1I, CPU L1D, CPU L2 up,
       CPU L2 down, GPU L1, GPU L2 up, GPU L2 down, L3)
22-29. Responses per cache level (same eight levels)
30. Number of wavelengths (the state active during the window)

The collector is event-driven: the router calls the ``on_*`` hooks as
packets move and ``observe_occupancies``/``observe_link`` once per
cycle; ``snapshot`` freezes the window into a vector and resets.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..noc.packet import CacheLevel, Packet, PacketClass

NUM_FEATURES = 30

#: Cache levels in the exact Table III order of features 14-21 / 22-29.
CACHE_LEVEL_ORDER = (
    CacheLevel.CPU_L1_INSTR,
    CacheLevel.CPU_L1_DATA,
    CacheLevel.CPU_L2_UP,
    CacheLevel.CPU_L2_DOWN,
    CacheLevel.GPU_L1,
    CacheLevel.GPU_L2_UP,
    CacheLevel.GPU_L2_DOWN,
    CacheLevel.L3,
)
# Engines index per-level counters by ``CacheLevel.table_index``; pin it
# to this tuple so the two orders can never drift apart.
assert all(lvl.table_index == i for i, lvl in enumerate(CACHE_LEVEL_ORDER))

FEATURE_NAMES: List[str] = (
    [
        "l3_router",
        "cpu_core_buffer_util",
        "other_router_cpu_buffer_util",
        "gpu_core_buffer_util",
        "other_router_gpu_buffer_util",
        "outgoing_link_util",
        "packets_sent_to_core",
        "incoming_from_other_routers",
        "incoming_from_cores",
        "requests_sent",
        "requests_received",
        "responses_sent",
        "responses_received",
    ]
    + [f"request_{lvl.value}" for lvl in CACHE_LEVEL_ORDER]
    + [f"response_{lvl.value}" for lvl in CACHE_LEVEL_ORDER]
    + ["num_wavelengths"]
)
assert len(FEATURE_NAMES) == NUM_FEATURES


class FeatureCollector:
    """Accumulates one router's Table III counters over a window."""

    def __init__(self, is_l3_router: bool = False) -> None:
        self.is_l3_router = is_l3_router
        self.reset()

    def reset(self) -> None:
        """Clear all counters (done at every window boundary)."""
        self._occupancy_sums = {
            "cpu_core": 0.0,
            "cpu_other": 0.0,
            "gpu_core": 0.0,
            "gpu_other": 0.0,
        }
        self._occupancy_samples = 0
        self._link_busy_cycles = 0
        self._link_samples = 0
        self._sent_to_core = 0
        self._incoming_other = 0
        self._incoming_cores = 0
        self._network_injected = 0
        self._requests_sent = 0
        self._requests_received = 0
        self._responses_sent = 0
        self._responses_received = 0
        self._requests_by_level: Dict[CacheLevel, int] = {
            lvl: 0 for lvl in CACHE_LEVEL_ORDER
        }
        self._responses_by_level: Dict[CacheLevel, int] = {
            lvl: 0 for lvl in CACHE_LEVEL_ORDER
        }

    # -- per-cycle observations ------------------------------------------

    def observe_occupancies(
        self,
        cpu_core: float,
        cpu_other: float,
        gpu_core: float,
        gpu_other: float,
    ) -> None:
        """Record one cycle's four buffer occupancies (features 2-5)."""
        self._occupancy_sums["cpu_core"] += cpu_core
        self._occupancy_sums["cpu_other"] += cpu_other
        self._occupancy_sums["gpu_core"] += gpu_core
        self._occupancy_sums["gpu_other"] += gpu_other
        self._occupancy_samples += 1

    def observe_link(self, busy: bool) -> None:
        """Record whether the outgoing link was busy this cycle (feat 6)."""
        self._link_samples += 1
        if busy:
            self._link_busy_cycles += 1

    # -- per-packet events -------------------------------------------------

    def on_injected(self, packet: Packet) -> None:
        """A core behind this router generated a packet (features 9-29)."""
        self._incoming_cores += 1
        if packet.source != packet.destination:
            self._network_injected += 1
        self._count_classified(packet, sent=True)

    def on_received(self, packet: Packet) -> None:
        """A packet arrived from another router (features 8, 11, 13)."""
        self._incoming_other += 1
        if packet.packet_class is PacketClass.REQUEST:
            self._requests_received += 1
        else:
            self._responses_received += 1
        self._count_by_level(packet)

    def on_delivered_to_core(self, packet: Packet) -> None:
        """A packet was handed to a local core/cache (feature 7)."""
        self._sent_to_core += 1

    def _count_classified(self, packet: Packet, sent: bool) -> None:
        if packet.packet_class is PacketClass.REQUEST:
            self._requests_sent += 1
        else:
            self._responses_sent += 1
        self._count_by_level(packet)

    def _count_by_level(self, packet: Packet) -> None:
        if packet.packet_class is PacketClass.REQUEST:
            self._requests_by_level[packet.cache_level] += 1
        else:
            self._responses_by_level[packet.cache_level] += 1

    # -- window snapshot ----------------------------------------------------

    def snapshot(self, wavelength_state: int) -> np.ndarray:
        """Freeze the window into a Table III-ordered vector and reset."""
        samples = max(self._occupancy_samples, 1)
        link_samples = max(self._link_samples, 1)
        vector = np.array(
            [
                1.0 if self.is_l3_router else 0.0,
                self._occupancy_sums["cpu_core"] / samples,
                self._occupancy_sums["cpu_other"] / samples,
                self._occupancy_sums["gpu_core"] / samples,
                self._occupancy_sums["gpu_other"] / samples,
                self._link_busy_cycles / link_samples,
                float(self._sent_to_core),
                float(self._incoming_other),
                float(self._incoming_cores),
                float(self._requests_sent),
                float(self._requests_received),
                float(self._responses_sent),
                float(self._responses_received),
            ]
            + [float(self._requests_by_level[lvl]) for lvl in CACHE_LEVEL_ORDER]
            + [float(self._responses_by_level[lvl]) for lvl in CACHE_LEVEL_ORDER]
            + [float(wavelength_state)],
            dtype=float,
        )
        self.reset()
        return vector

    @property
    def injected_this_window(self) -> int:
        """Packets injected by local cores so far this window."""
        return self._incoming_cores

    @property
    def network_injected_this_window(self) -> int:
        """Link-bound packets injected so far this window (the label).

        Intra-cluster L1<->L2 packets never occupy the photonic link, so
        the Eq. 7 capacity comparison must exclude them.
        """
        return self._network_injected
