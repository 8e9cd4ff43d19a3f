"""Shared closed-loop response generation.

All three network models (PEARL R-SWMR, token-MWSR, CMESH) answer
delivered requests the same way: the L3 bank serves after a hit/miss
latency (misses queue at the memory controllers), peer clusters forward
after a small fixed latency, and local L2s answer intra-cluster
requests.  This module centralises that policy so baselines stay
comparable: every engine of every model, the PEARL array core included,
builds its responses through :func:`build_response`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..cache.memory import MemoryController
from .packet import CacheLevel, CoreType, PacketClass

#: Flits in a data-bearing response (64-byte line + header).
RESPONSE_FLITS = 5


@dataclass(frozen=True)
class ResponderConfig:
    """Closed-loop response generation parameters."""

    l3_hit_latency: int = 8
    local_l2_latency: int = 4
    peer_latency: int = 6
    cpu_l3_miss_rate: float = 0.25
    gpu_l3_miss_rate: float = 0.30
    response_flits: int = RESPONSE_FLITS

    def __post_init__(self) -> None:
        for rate in (self.cpu_l3_miss_rate, self.gpu_l3_miss_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("miss rates must be in [0, 1]")
        if min(self.l3_hit_latency, self.local_l2_latency, self.peer_latency) < 0:
            raise ValueError("latencies cannot be negative")


def build_response(
    requester: int,
    server: int,
    core: CoreType,
    created_cycle: int,
    cycle: int,
    config: ResponderConfig,
    rng: np.random.Generator,
    memory: MemoryController,
    l3_router_id: int,
    line_bytes: int = 64,
) -> Tuple[int, tuple]:
    """The ``(ready_cycle, response row)`` for a request delivered at ``cycle``.

    The request went from ``requester`` to ``server`` for a ``core``
    core and was created at ``created_cycle``; the response travels
    back from ``server`` to ``requester``.  Only an L3 request draws
    from ``rng`` (one draw, the miss test).  The response is a trace
    row, ``(source, destination, core_type, packet_class, cache_level,
    size_flits, created_cycle)``: the array core carries it as is, and
    the object engines wrap it as ``Packet(*row)``.
    """
    local = requester == server
    if server == l3_router_id:
        miss_rate = (
            config.cpu_l3_miss_rate
            if core is CoreType.CPU
            else config.gpu_l3_miss_rate
        )
        ready = cycle + config.l3_hit_latency
        if rng.random() < miss_rate:
            line = requester * 131 + created_cycle
            ready = memory.request(line * line_bytes, ready)
        level = CacheLevel.L3
    else:
        ready = cycle + (
            config.local_l2_latency if local else config.peer_latency
        )
        level = (
            CacheLevel.CPU_L2_UP if core is CoreType.CPU else CacheLevel.GPU_L2_UP
        )
    return ready, (
        server,
        requester,
        core,
        PacketClass.RESPONSE,
        level,
        1 if local else config.response_flits,
        ready,
    )
