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

from typing import Dict, List, Optional

from ..config import PhotonicConfig, PowerScalingConfig
from .wavelength import WavelengthLadder


class LaserBank:
    """One router's bank-organised on-chip laser array (Fig. 3).

    The bank tracks the *active* wavelength state, pending transitions
    and the stabilization countdown.  Scaling **down** is immediate
    (lasers switch off instantly); scaling **up** keeps the link dark
    for ``turn_on_cycles`` while the newly lit lasers stabilise, after
    which the new state becomes active.  Power is integrated as integer
    cycle counts per powered state (``energy_j`` is derived lazily), so
    a span of cycles can be credited in closed form with bit-identical
    statistics to per-cycle :meth:`tick` calls — the invariant the
    array core's lazy laser ledgers are built on.
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
        self._pending_state: Optional[int] = None
        self._stabilize_remaining = 0
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
        return self._stabilize_remaining > 0

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
        """Ask for a state change at a window boundary.

        A downward change applies immediately; an upward change starts
        the stabilization countdown (shortening an in-flight one is not
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
        if new_state <= self._state:
            self._state = new_state
            self._pending_state = None
            self._stabilize_remaining = 0
        else:
            self._pending_state = new_state
            self._stabilize_remaining = self.turn_on_cycles
            if self._stabilize_remaining == 0:
                self._state = new_state
                self._pending_state = None

    def tick(self) -> None:
        """Advance one network cycle: integrate power, progress warm-up."""
        # While stabilizing the target lasers are already drawing power.
        powered_state = (
            self._pending_state if self._pending_state is not None else self._state
        )
        counts = self._cycles_at_power
        counts[powered_state] = counts.get(powered_state, 0) + 1
        self.cycles_in_state[self._state] += 1
        if self._stabilize_remaining > 0:
            self.stall_cycles += 1
            self._stabilize_remaining -= 1
            if self._stabilize_remaining == 0 and self._pending_state is not None:
                self._state = self._pending_state
                self._pending_state = None

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


class ReactivePowerScaler:
    """Buffer-occupancy-driven wavelength-state selector (steps 6-8).

    When the reservation window closes, the engine passes in the
    router's window-mean combined buffer occupancy (Buf_w) and the
    scaler converts it into a state via the four descending thresholds.
    It keeps no per-cycle state.  When ``use_8wl`` is off the ladder
    bottoms out at 16 wavelengths.
    """

    def __init__(
        self,
        config: PowerScalingConfig,
        ladder: WavelengthLadder,
        router_id: int = 0,
    ) -> None:
        self.config = config
        self.ladder = ladder
        # Stagger window boundaries so routers do not all switch at once
        # (Sec. IV-A: collection offset by 10 cycles per router).
        self.offset = (router_id * config.router_stagger_cycles) % max(
            config.reservation_window, 1
        )
        self._window = config.reservation_window
        self.decisions: List[int] = []

    def window_boundary(self, cycle: int) -> bool:
        """Step 6: does this cycle close the router's staggered window?"""
        return (cycle - self.offset) % self._window == 0

    def select_state(self, mean_occupancy: float) -> int:
        """Step 8: map a window-mean occupancy to a wavelength state."""
        upper, mid_upper, mid_lower, lower = self.config.thresholds()
        states = self.ladder.states
        if mean_occupancy > upper:
            state = states[0]  # 64 WL
        elif mean_occupancy > mid_upper:
            state = states[1]  # 48 WL
        elif mean_occupancy > mid_lower:
            state = states[2]  # 32 WL
        elif mean_occupancy > lower:
            state = states[3]  # 16 WL
        else:
            state = states[4] if self.config.use_8wl else states[3]
        return state

    def close_window(self, mean_occupancy: float) -> int:
        """Step 8 on the closed window's mean Buf_w: the next state."""
        if not 0.0 <= mean_occupancy <= 1.0:
            raise ValueError("occupancy must be a fraction in [0, 1]")
        state = self.select_state(mean_occupancy)
        self.decisions.append(state)
        return state


class StaticPowerPolicy:
    """No power scaling: the laser stays at one fixed state.

    Used for the PEARL-Dyn / PEARL-FCFS 64-wavelength baselines and the
    static 32/16-wavelength configurations of Fig. 5.
    """

    def __init__(self, state: int, ladder: WavelengthLadder) -> None:
        if state not in ladder.states:
            raise ValueError(f"unknown wavelength state {state}")
        self.state = state
        self.ladder = ladder

    def window_boundary(self, cycle: int) -> bool:
        """A static policy never reconfigures."""
        return False

    def close_window(self) -> int:
        """Return the fixed state (never called by the router loop)."""
        return self.state
