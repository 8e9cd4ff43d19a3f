"""PROTEUS-style loss-aware rule-based laser/performance co-management.

Sri Vatsavai et al. (PAPERS.md) manage photonic interconnect power with
deterministic rules that couple the *optical loss budget* of each link
to the performance state it is allowed to run at: a link whose worst
case loss leaves the laser unable to close the budget at N wavelengths
simply never turns N wavelengths on, regardless of demand.

This module implements that co-management on top of the PEARL ladder:

* At construction the per-router :class:`~repro.noc.photonic.LinkBudget`
  (farthest-reader loss from the floorplan) is converted into the
  largest ladder state whose total optical output fits inside a fixed
  per-router laser budget — the **loss cap**.  A strictly worse loss
  budget can only lower the cap (required mW per wavelength is monotone
  in loss dB), which is the monotonicity property the hypothesis suite
  pins.
* At every window close the demand rule (the paper's Algorithm 1
  occupancy thresholds, inherited from :class:`ReactivePowerScaler`)
  proposes a state, and the deployed state is the minimum of proposal
  and cap.

Drop-in replacement for :class:`ReactivePowerScaler` as a router's
policy: it decides from the same window-mean occupancy the engines
pass to every reactive scaler.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import PowerScalingConfig
from ..noc.photonic import LinkBudget
from .power_scaling import ReactivePowerScaler
from .wavelength import WavelengthLadder

#: Per-router optical laser budget (mW).  On the default 16-cluster
#: floorplan the worst corner router needs ~0.32 mW per wavelength, so
#: 24 mW sustains the full 64 WL state with headroom — the cap only
#: binds when the loss budget degrades (bigger die, worse optics,
#: tighter budget passed explicitly).
DEFAULT_LASER_BUDGET_MW = 24.0


def loss_capped_state(
    budget: LinkBudget,
    ladder: WavelengthLadder,
    laser_budget_mw: float,
    use_8wl: bool = True,
) -> int:
    """Largest ladder state whose optical output fits the laser budget.

    Floors at the lowest rung the demand rule may select (16 WL when
    the 8 WL state is disabled) — a link that cannot even afford that
    still has to function, it just runs with negative margin.
    """
    if laser_budget_mw <= 0:
        raise ValueError("laser_budget_mw must be positive")
    per_wavelength_mw = budget.required_output_mw
    sustainable = int(laser_budget_mw / per_wavelength_mw)
    floor_index = len(ladder.states) - (1 if use_8wl else 2)
    floor = ladder.states[floor_index]
    for state in ladder.states:
        if state <= sustainable:
            return max(state, floor)
    return floor


class ProteusPowerScaler(ReactivePowerScaler):
    """Reactive demand rule clamped by the per-router loss cap."""

    def __init__(
        self,
        config: PowerScalingConfig,
        ladder: WavelengthLadder,
        link_budget: LinkBudget,
        laser_budget_mw: Optional[float] = None,
    ) -> None:
        super().__init__(config, ladder)
        if laser_budget_mw is None:
            laser_budget_mw = DEFAULT_LASER_BUDGET_MW
        self.link_budget = link_budget
        self.laser_budget_mw = laser_budget_mw
        self.max_state = loss_capped_state(
            link_budget, ladder, laser_budget_mw, use_8wl=config.use_8wl
        )
        #: States the demand rule proposed before the cap was applied.
        self.proposed: List[int] = []

    def select_state(self, mean_occupancy: float) -> int:
        """Demand proposal clamped to the loss cap (both ladder states)."""
        proposed = super().select_state(mean_occupancy)
        self.proposed.append(proposed)
        return min(proposed, self.max_state)
