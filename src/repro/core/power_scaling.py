"""Reactive dynamic power scaling — Algorithm 1, steps 6-8.

Every reservation window (RW) each router averages its combined buffer
occupancy (step 7, integrated by the cycle engine) and compares the
mean against four thresholds to pick one of five wavelength states for
the *next* window (step 8).  The laser array that realises the state is
modelled by :class:`LaserBank`, including the on-chip Fabry-Perot laser
turn-on (stabilization) delay during which no data is transmitted
(Sec. IV-C sensitivity study).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..config import PhotonicConfig, PowerScalingConfig
from .wavelength import WavelengthLadder


class LaserBank:
    """One router's bank-organised on-chip laser array (Fig. 3).

    The bank is the one copy of its router's laser state: the active
    wavelength state, a pending turn-on with its flip cycle, and the
    integrated statistics that the fault clamp, the window telemetry,
    the run result and the energy integration read.  Scaling **down**
    is immediate (lasers switch off instantly); scaling **up** keeps the
    link dark for ``turn_on_cycles`` while the newly lit lasers
    stabilise, after which the new state becomes active.

    ``clock`` is the first cycle not yet integrated, and a request
    applies at it.  The reference engine integrates one cycle per
    :meth:`tick`; the array core integrates whole spans with
    :meth:`settle`.  Power is integrated as integer cycle counts per
    powered state (``energy_j`` is derived lazily), so the two
    integrators produce bit-identical statistics.
    """

    def __init__(
        self,
        photonic: PhotonicConfig,
        network_frequency_ghz: float = 2.0,
        initial_state: Optional[int] = None,
    ) -> None:
        self.ladder = WavelengthLadder(photonic)
        self.turn_on_cycles = photonic.turn_on_cycles(network_frequency_ghz)
        self._state = initial_state or self.ladder.max_state
        if self._state not in self.ladder.states:
            raise ValueError(f"unknown wavelength state {self._state}")
        #: First cycle not yet integrated.
        self.clock = 0
        self._pending_state: Optional[int] = None
        #: The cycle a pending turn-on becomes active (read only while
        #: ``_pending_state`` is set).
        self._flip_cycle = 0
        # Integrated statistics:
        self.cycles_in_state: Dict[int, int] = {s: 0 for s in self.ladder.states}
        self.stall_cycles = 0
        self.transitions = 0
        self._cycle_ns = 1.0 / network_frequency_ghz
        # Cycles spent drawing each state's power (the powered state is
        # the *pending* one while stabilizing).  Kept as integers so the
        # energy integral is order-independent and exactly reproducible
        # whether the run ticked every cycle or settled whole spans.
        self._cycles_at_power: Dict[int, int] = {}
        self._power_w: Dict[int, float] = {
            s: self.ladder.power_w(s) for s in self.ladder.states
        }

    @property
    def state(self) -> int:
        """The active wavelength state (what data can be sent with)."""
        return self._state

    @property
    def is_stabilizing(self) -> bool:
        """True while newly lit lasers are warming up (link is dark)."""
        return self._pending_state is not None

    @property
    def energy_j(self) -> float:
        """Laser energy integrated so far, derived from cycle counts."""
        cycle_s = self._cycle_ns * 1e-9
        total = 0.0
        for state in sorted(self._cycles_at_power):
            total += (
                self._power_w[state] * self._cycles_at_power[state] * cycle_s
            )
        return total

    @property
    def can_transmit(self) -> bool:
        """False while the link is dark during stabilization."""
        return not self.is_stabilizing

    def request_state(self, new_state: int) -> None:
        """Ask for a state change, effective from cycle ``clock``.

        A downward change applies immediately; an upward change starts
        the stabilization delay (shortening an in-flight one is not
        modelled — re-requests replace the pending target).  Requesting
        the *current* state while an upward transition is pending
        cancels the transition: the active lasers are already lit, so
        no dark stabilization span is owed (fault clamps re-request the
        active state exactly this way mid-stabilization).
        """
        if new_state not in self.ladder.states:
            raise ValueError(f"unknown wavelength state {new_state}")
        if new_state == self._state and self._pending_state is None:
            return
        self.transitions += 1
        if new_state <= self._state or self.turn_on_cycles == 0:
            self._state = new_state
            self._pending_state = None
        else:
            self._pending_state = new_state
            self._flip_cycle = self.clock + self.turn_on_cycles

    def tick(self) -> None:
        """Integrate cycle ``clock``: power, residency, warm-up."""
        pending = self._pending_state
        # While stabilizing the target lasers are already drawing power.
        powered_state = self._state if pending is None else pending
        counts = self._cycles_at_power
        counts[powered_state] = counts.get(powered_state, 0) + 1
        self.cycles_in_state[self._state] += 1
        self.clock += 1
        if pending is not None:
            self.stall_cycles += 1
            if self.clock == self._flip_cycle:
                self._state = pending
                self._pending_state = None

    def settle(self, to: int) -> None:
        """Integrate cycles ``[clock, to)`` in closed form.

        Equal to ``to - clock`` calls of :meth:`tick`: a pending turn-on
        whose flip cycle falls inside the span splits it there, the
        cycles before the flip stalled with the new lasers powered and
        the cycles from it on under the new state.
        """
        clock = self.clock
        if to < clock:
            raise ValueError("laser bank settled backwards")
        counts = self._cycles_at_power
        pending = self._pending_state
        if pending is not None:
            flip = self._flip_cycle
            end = flip if flip < to else to
            span = end - clock
            if span:
                counts[pending] = counts.get(pending, 0) + span
                self.cycles_in_state[self._state] += span
                self.stall_cycles += span
            if end < flip:
                self.clock = to
                return
            self._state = pending
            self._pending_state = None
            clock = flip
        span = to - clock
        if span:
            state = self._state
            counts[state] = counts.get(state, 0) + span
            self.cycles_in_state[state] += span
        self.clock = to

    def reset_stats(self) -> None:
        """Clear the integrated statistics (warm-up boundary)."""
        self.cycles_in_state = {s: 0 for s in self.ladder.states}
        self._cycles_at_power = {}
        self.stall_cycles = 0
        self.transitions = 0

    def total_cycles(self) -> int:
        """Cycles integrated so far."""
        return sum(self.cycles_in_state.values())

    def mean_power_w(self) -> float:
        """Time-average laser power over the integrated cycles."""
        cycles = self.total_cycles()
        if cycles == 0:
            return self.ladder.power_w(self._state)
        return self.energy_j / (cycles * self._cycle_ns * 1e-9)

    def residency(self) -> Dict[int, float]:
        """Fraction of time spent in each wavelength state."""
        cycles = self.total_cycles()
        if cycles == 0:
            return {s: 0.0 for s in self.ladder.states}
        return {s: c / cycles for s, c in self.cycles_in_state.items()}

    def record_telemetry(self, registry) -> None:
        """Flush the integrated state statistics into a metrics registry.

        Cycle counts are emitted as counters (they add across routers
        and jobs, so residency fractions can always be recovered from
        the aggregate); called once per run per router — never on the
        cycle path.
        """
        for state, cycles in self.cycles_in_state.items():
            if cycles:
                registry.counter(
                    f"laser/state_cycles/{state}wl",
                    help="cycles the active wavelength state spent at this rung",
                ).inc(cycles)
        if self.stall_cycles:
            registry.counter(
                "laser/stall_cycles",
                help="dark cycles spent waiting for laser stabilization",
            ).inc(self.stall_cycles)
        if self.transitions:
            registry.counter(
                "laser/transitions",
                help="wavelength-state change requests accepted",
            ).inc(self.transitions)


class ClosedWindow(NamedTuple):
    """What a window policy decides from when a reservation window closes.

    ``label`` is the window's link-bound injection count, ``row`` its
    Table III row (a list; under the ML policy the router's row of its
    close group's inference matrix) and ``buf_mean`` its Buf_w mean (see
    :meth:`repro.noc.router.PearlRouter.freeze_window`).  ``max_state``
    caps the ladder at what faulted hardware sustains (None: healthy),
    and ``predicted`` is the router's row of the ML inference its close
    group shares (None: an ML policy predicts the row alone).
    """

    cycle: int
    label: float
    row: Optional[Sequence[float]]
    buf_mean: float
    max_state: Optional[int] = None
    predicted: Optional[float] = None


def threshold_state(
    occupancy: float,
    thresholds: Tuple[float, float, float, float],
    states: Sequence[int],
    use_8wl: bool,
) -> int:
    """Step 8: the five-band rule from a mean occupancy to a state.

    ``thresholds`` descend (upper, mid-upper, mid-lower, lower) and
    ``states`` is the ladder, highest first; the lowest band selects
    the 8 WL rung only when ``use_8wl`` is on.
    """
    upper, mid_upper, mid_lower, lower = thresholds
    if occupancy > upper:
        return states[0]  # 64 WL
    if occupancy > mid_upper:
        return states[1]  # 48 WL
    if occupancy > mid_lower:
        return states[2]  # 32 WL
    if occupancy > lower:
        return states[3]  # 16 WL
    return states[4] if use_8wl else states[3]


class ReactivePowerScaler:
    """Buffer-occupancy-driven wavelength-state selector (steps 6-8).

    When the reservation window closes, the engine passes in the
    router's window-mean combined buffer occupancy (Buf_w) and the
    scaler converts it into a state via the four descending thresholds.
    It keeps no per-cycle state.  When ``use_8wl`` is off the ladder
    bottoms out at 16 wavelengths.
    """

    def __init__(
        self, config: PowerScalingConfig, ladder: WavelengthLadder
    ) -> None:
        self.config = config
        self.ladder = ladder
        self.decisions: List[int] = []
        # The configuration is frozen, so its thresholds resolve once.
        self._thresholds = config.thresholds()

    def current_thresholds(self) -> Tuple[float, float, float, float]:
        """The four thresholds the band rule compares against."""
        return self._thresholds

    def select_state(self, mean_occupancy: float) -> int:
        """Step 8: map a window-mean occupancy to a wavelength state."""
        return threshold_state(
            mean_occupancy,
            self.current_thresholds(),
            self.ladder.states,
            self.config.use_8wl,
        )

    def close_window(self, window: ClosedWindow) -> int:
        """Step 8 on the closed window's mean Buf_w: the next state.

        A fault cap is left to the router's clamp.
        """
        if not 0.0 <= window.buf_mean <= 1.0:
            raise ValueError("occupancy must be a fraction in [0, 1]")
        state = self.select_state(window.buf_mean)
        self.decisions.append(state)
        return state


class RandomStatePolicy:
    """Dataset-collection policy: a uniformly random state per window.

    The 8 WL rung is excluded, as in the paper's phase-1 collection.
    """

    def __init__(
        self, ladder: WavelengthLadder, rng: np.random.Generator
    ) -> None:
        self._states = ladder.states_without_lowest()
        self._rng = rng

    def close_window(self, window: ClosedWindow) -> int:
        """Draw the next window's state."""
        return int(self._rng.choice(self._states))
