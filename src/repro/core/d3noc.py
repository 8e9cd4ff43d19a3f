"""D3NOC-style data-driven bandwidth reconfiguration (window scale).

Mehrabian et al.'s D3NOC (PAPERS.md) reconfigures a photonic NoC from
*observed* traffic data: telemetry gathered over an epoch drives both
the link bandwidth handed to each traffic class and the number of
active channels for the next epoch.  Mapped onto PEARL's machinery:

* **Bandwidth reconfiguration** — at every reservation-window close the
  window-mean CPU/GPU input-buffer utilizations (features 2 and 4 of
  the Table III vector the engine froze for the close) are
  pushed through the Algorithm 1 decision structure once, and the
  resulting split is *pinned* on the router's
  :class:`~repro.core.dba.DynamicBandwidthAllocator` for the whole next
  window.  Where PEARL-Dyn re-decides combinationally every cycle,
  D3NOC reconfigures on telemetry epochs — the trade the bake-off
  experiment measures.
* **Wavelength scaling** — an EWMA over the *realized* per-window
  injected packet counts (the label PEARL trains its ridge model on)
  feeds the same Eq. 7 capacity selector the ML policy uses.  Both
  policies answer "how many wavelengths does the next window need?";
  ML extrapolates with a trained model, D3NOC smooths history.

The reconfigurer is deliberately snapshot-driven: it has **no per-cycle
observe path**, so both engines reproduce it bit-identically by
construction — both hand ``close_window`` the label and feature row
frozen by the one close path,
:meth:`~repro.noc.network.PearlNetwork._close_windows`.
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..config import DBAConfig
from .dba import DynamicBandwidthAllocator, FCFSAllocator
from .ml_scaling import StateSelector
from .power_scaling import ClosedWindow

#: EWMA weight on the newest window's injected count.  1/2 keeps the
#: smoothing arithmetic on exact binary fractions.
DEFAULT_EWMA_ALPHA = 0.5

#: Table III indices of the window-mean core-side buffer utilizations.
CPU_UTIL_FEATURE = 1
GPU_UTIL_FEATURE = 3


class D3nocReconfigurer:
    """Per-router window-scale wavelength + bandwidth reconfiguration.

    ``allocator`` is the router's allocator the chosen split is pinned
    on (None: decide and record only).
    """

    def __init__(
        self,
        selector: StateSelector,
        dba_config: DBAConfig,
        ewma_alpha: float = DEFAULT_EWMA_ALPHA,
        allocator: Optional[
            Union[DynamicBandwidthAllocator, FCFSAllocator]
        ] = None,
    ) -> None:
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        self.selector = selector
        self.ewma_alpha = ewma_alpha
        self.allocator = allocator
        # Algorithm 1's split rule, fed epoch telemetry instead of the
        # instantaneous occupancy (the router's own allocator may be
        # the FCFS baseline, which has no rule to reuse).
        self._rule = DynamicBandwidthAllocator(dba_config)
        self._ewma: Optional[float] = None
        #: Wavelength states chosen at each close (post fault clamp cap).
        self.decisions: List[int] = []
        #: Split labels pinned at each close.
        self.split_history: List[str] = []

    @property
    def demand_ewma(self) -> Optional[float]:
        """Smoothed injected-packets estimate (None before any close)."""
        return self._ewma

    def split_for_window(self, cpu_util: float, gpu_util: float) -> str:
        """Algorithm 1's split over window-mean utilizations (its label)."""
        rule = self._rule
        return rule.split_labels[rule.decide(cpu_util, gpu_util)]

    def close_window(self, window: ClosedWindow) -> int:
        """Consume one window's telemetry; return the next state.

        The window's label (its realized injected-packet count) feeds
        the demand EWMA and Eq. 7 pick under the fault cap; its frozen
        Table III row picks the split pinned for the next window (FCFS
        ignores the pin — no reconfigurable split).
        """
        alpha = self.ewma_alpha
        if self._ewma is None:
            self._ewma = float(window.label)
        else:
            self._ewma = (
                alpha * float(window.label) + (1.0 - alpha) * self._ewma
            )
        state = self.selector.state_for_packets(self._ewma, window.max_state)
        row = window.row
        split = self.split_for_window(
            float(row[CPU_UTIL_FEATURE]), float(row[GPU_UTIL_FEATURE])
        )
        self.decisions.append(state)
        self.split_history.append(split)
        if self.allocator is not None:
            self.allocator.pin_split(split)
        return state
