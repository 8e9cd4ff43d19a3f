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

from typing import List, Optional, Tuple

import numpy as np

from ..config import DBAConfig
from .ml_scaling import StateSelector

#: EWMA weight on the newest window's injected count.  1/2 keeps the
#: smoothing arithmetic on exact binary fractions.
DEFAULT_EWMA_ALPHA = 0.5

#: Table III indices of the window-mean core-side buffer utilizations.
CPU_UTIL_FEATURE = 1
GPU_UTIL_FEATURE = 3


class D3nocReconfigurer:
    """Per-router window-scale wavelength + bandwidth reconfiguration."""

    def __init__(
        self,
        selector: StateSelector,
        dba_config: DBAConfig,
        router_id: int = 0,
        ewma_alpha: float = DEFAULT_EWMA_ALPHA,
    ) -> None:
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        self.selector = selector
        self.dba_config = dba_config
        self.router_id = router_id
        self.ewma_alpha = ewma_alpha
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
        """Algorithm 1's decision structure over window-mean utilizations.

        Same branch order as
        :meth:`~repro.core.dba.DynamicBandwidthAllocator._decide`, fed
        with epoch telemetry instead of instantaneous occupancy.
        """
        if gpu_util == 0.0 and cpu_util > 0.0:
            return "all_cpu"
        if cpu_util == 0.0 and gpu_util > 0.0:
            return "all_gpu"
        if gpu_util < self.dba_config.gpu_upper_bound:
            return "cpu_major"
        if cpu_util < self.dba_config.cpu_upper_bound:
            return "gpu_major"
        return "even"

    def close_window(
        self,
        label: float,
        snapshot: np.ndarray,
        max_state: Optional[int] = None,
    ) -> Tuple[int, str]:
        """Consume one window's telemetry; return (state, split label).

        ``label`` is the realized injected-packet count of the window
        that just closed; ``snapshot`` the frozen Table III vector.
        ``max_state`` restricts the ladder to what degraded hardware can
        sustain (wavelength faults), mirroring the ML policy.
        """
        alpha = self.ewma_alpha
        if self._ewma is None:
            self._ewma = float(label)
        else:
            self._ewma = alpha * float(label) + (1.0 - alpha) * self._ewma
        state = self.selector.state_for_packets(self._ewma, max_state)
        split = self.split_for_window(
            float(snapshot[CPU_UTIL_FEATURE]),
            float(snapshot[GPU_UTIL_FEATURE]),
        )
        self.decisions.append(state)
        self.split_history.append(split)
        return state, split
