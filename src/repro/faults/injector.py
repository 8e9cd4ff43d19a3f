"""Runtime fault state: per-router capacity views and the bit-error RNG.

Two small classes turn a frozen :class:`~repro.faults.schedule.FaultSchedule`
into the per-cycle state the simulator consumes:

* :class:`RouterFaultInjector` — one per router.  Tracks the disabled
  ring set and the droop cap as piecewise-constant functions of the
  cycle, exposes the largest sustainable wavelength state
  (``max_usable_state``), and clamps policy requests to it.  Fault
  start/end cycles are *events*: the array core's idle skipping stops
  at the next one (:meth:`RouterFaultInjector.next_event`), so both
  cycle engines apply every fault transition on exactly the same cycle.

* :class:`NetworkFaultContext` — network-wide.  Owns the dedicated
  bit-error RNG (seeded from the schedule alone, never shared with the
  traffic/responder streams) and decides per-packet CRC outcomes at
  photonic arrival time.  The RNG is drawn **only** when a nonzero
  error rate is active, so schedules without bit errors — and empty
  schedules in particular — consume no randomness and stay
  bit-identical to fault-free runs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.wavelength import WavelengthLadder
from .schedule import BitErrorFault, FaultSchedule


class RouterFaultInjector:
    """One router's view of the schedule's capacity-affecting faults."""

    def __init__(
        self,
        schedule: FaultSchedule,
        router_id: int,
        ladder: WavelengthLadder,
        max_wavelengths: int,
    ) -> None:
        self.router_id = router_id
        self._ladder = ladder
        self._max_wavelengths = max_wavelengths
        wl, droop = schedule.for_router(router_id)
        self._wl_faults = wl
        self._droop_faults = droop
        self._wl_indices = tuple(
            f.failed_indices(max_wavelengths) for f in wl
        )
        events = set()
        for fault in wl + droop:
            events.add(fault.start)
            if fault.end is not None:
                events.add(fault.end)
        self._events: List[int] = sorted(events)
        self._next_idx = 0
        # Piecewise-constant state, recomputed only at fault events:
        self.disabled_wavelengths: frozenset = frozenset()
        self.capacity = max_wavelengths
        self.max_usable_state: Optional[int] = ladder.max_state
        self.link_down = False
        self._recompute(-1)

    def _recompute(self, cycle: int) -> None:
        """Rebuild the capacity view for the span starting at ``cycle``."""
        disabled: set = set()
        for fault, indices in zip(self._wl_faults, self._wl_indices):
            if fault.active(cycle):
                disabled |= indices
        droop_cap: Optional[int] = None
        for fault in self._droop_faults:
            if fault.active(cycle):
                droop_cap = (
                    fault.max_state
                    if droop_cap is None
                    else min(droop_cap, fault.max_state)
                )
        self.disabled_wavelengths = frozenset(disabled)
        self.capacity = self._max_wavelengths - len(disabled)
        effective = self.capacity
        if droop_cap is not None and droop_cap < effective:
            effective = droop_cap
        usable = self._ladder.max_state_for_capacity(effective)
        self.max_usable_state = usable
        self.link_down = usable is None

    def advance_to(self, cycle: int) -> bool:
        """Consume fault events up to ``cycle``; True when state changed.

        Called once per executed cycle from the router's control tick.
        The array core calls it only on event cycles and never skips
        across an unconsumed event (see :meth:`next_event`), so the
        recompute lands on the same cycle under both engines.
        """
        events = self._events
        idx = self._next_idx
        if idx < len(events) and events[idx] <= cycle:
            while idx < len(events) and events[idx] <= cycle:
                idx += 1
            self._next_idx = idx
            self._recompute(cycle)
            return True
        return False

    def next_event(self) -> Optional[int]:
        """The next unconsumed fault start/end cycle, if any."""
        if self._next_idx < len(self._events):
            return self._events[self._next_idx]
        return None

    def clamp_state(self, state: int) -> int:
        """The closest sustainable state at or below ``state``.

        With the link down (capacity below every ladder state) the
        lasers park at the ladder floor; the router separately refuses
        to transmit while ``link_down`` holds.
        """
        usable = self.max_usable_state
        if usable is None:
            return self._ladder.min_state
        return min(state, usable)

    def surviving_wavelengths(self, limit: Optional[int] = None) -> Tuple[int, ...]:
        """The usable ring indices, lowest first (at most ``limit``)."""
        disabled = self.disabled_wavelengths
        if limit is None:
            limit = self._max_wavelengths
        rings = []
        for index in range(self._max_wavelengths):
            if index not in disabled:
                rings.append(index)
                if len(rings) >= limit:
                    break
        return tuple(rings)


class NetworkFaultContext:
    """Network-wide fault state shared across routers (bit errors)."""

    def __init__(self, schedule: FaultSchedule, num_routers: int) -> None:
        self.schedule = schedule
        self._rng = np.random.default_rng(schedule.seed)
        by_router: List[List[BitErrorFault]] = [
            [] for _ in range(num_routers)
        ]
        for fault in schedule.bit_error_faults:
            if fault.router is None:
                targets = range(num_routers)
            elif 0 <= fault.router < num_routers:
                targets = (fault.router,)
            else:
                continue
            for router_id in targets:
                by_router[router_id].append(fault)
        self._bit_faults: Tuple[Tuple[BitErrorFault, ...], ...] = tuple(
            tuple(faults) for faults in by_router
        )
        self.has_bit_errors = any(self._bit_faults)

    def error_rate(self, router_id: int, cycle: int) -> float:
        """The per-flit error rate on ``router_id``'s outgoing link."""
        rate = 0.0
        for fault in self._bit_faults[router_id]:
            if fault.active(cycle) and fault.rate > rate:
                rate = fault.rate
        return rate

    def corrupts(self, source_router: int, size_flits: int, cycle: int) -> bool:
        """Decide one packet's CRC outcome at its arrival cycle.

        A packet is corrupted when any of its flits takes a bit error.
        The RNG is drawn only under an active nonzero rate, keeping
        every other schedule bit-identical to a fault-free run; draws
        happen in photonic-arrival order, which both cycle engines
        produce identically (arrival cycles bound the skip horizon).
        """
        if not self.has_bit_errors:
            return False
        rate = self.error_rate(source_router, cycle)
        if rate <= 0.0:
            return False
        survive_p = (1.0 - rate) ** size_flits
        return self._rng.random() >= survive_p
