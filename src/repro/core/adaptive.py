"""Adaptive-threshold reactive power scaling (extension).

The paper fixes the four occupancy thresholds offline and notes they
"can be changed to favor either throughput or power".  This extension
closes that loop at runtime: the thresholds scale multiplicatively so
the router's window-mean occupancy settles inside a target band —
sustained pressure lowers the thresholds (higher states chosen sooner,
protecting throughput), sustained idleness raises them (deeper power
savings).

Drop-in replacement for :class:`ReactivePowerScaler` in the router; the
adjustment preserves the thresholds' descending order by construction
(a common multiplicative factor).
"""

from __future__ import annotations

from typing import List, Tuple

from ..config import PowerScalingConfig
from .power_scaling import ReactivePowerScaler
from .wavelength import WavelengthLadder


class AdaptiveReactiveScaler(ReactivePowerScaler):
    """Reactive scaler with self-tuning occupancy thresholds."""

    def __init__(
        self,
        config: PowerScalingConfig,
        ladder: WavelengthLadder,
        router_id: int = 0,
        target_band: Tuple[float, float] = (0.02, 0.15),
        adjust_factor: float = 1.25,
        scale_bounds: Tuple[float, float] = (0.125, 8.0),
    ) -> None:
        super().__init__(config, ladder, router_id=router_id)
        lo, hi = target_band
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError("target band must satisfy 0 <= lo < hi <= 1")
        if adjust_factor <= 1.0:
            raise ValueError("adjust_factor must exceed 1")
        min_scale, max_scale = scale_bounds
        if not 0.0 < min_scale <= 1.0 <= max_scale:
            raise ValueError("scale_bounds must bracket 1.0")
        self.target_band = target_band
        self.adjust_factor = adjust_factor
        self.scale_bounds = scale_bounds
        self._scale = 1.0
        self._base_thresholds = config.thresholds()
        self.scale_history: List[float] = []

    @property
    def threshold_scale(self) -> float:
        """Current multiplicative factor on the configured thresholds."""
        return self._scale

    def current_thresholds(self) -> Tuple[float, float, float, float]:
        """The four thresholds after adaptation, still descending."""
        return tuple(t * self._scale for t in self._base_thresholds)

    def _adapt(self, mean_occupancy: float) -> None:
        lo, hi = self.target_band
        min_scale, max_scale = self.scale_bounds
        if mean_occupancy > hi:
            # Under pressure: choose higher states sooner.
            self._scale = max(self._scale / self.adjust_factor, min_scale)
        elif mean_occupancy < lo:
            # Idle: demand more occupancy before paying for wavelengths.
            self._scale = min(self._scale * self.adjust_factor, max_scale)
        self.scale_history.append(self._scale)

    def select_state(self, mean_occupancy: float) -> int:
        """Threshold comparison against the *adapted* thresholds."""
        upper, mid_upper, mid_lower, lower = self.current_thresholds()
        states = self.ladder.states
        if mean_occupancy > upper:
            state = states[0]
        elif mean_occupancy > mid_upper:
            state = states[1]
        elif mean_occupancy > mid_lower:
            state = states[2]
        elif mean_occupancy > lower:
            state = states[3]
        else:
            state = states[4] if self.config.use_8wl else states[3]
        return state

    def close_window(self, mean_occupancy: float) -> int:
        """Adapt on the window mean, then select as usual."""
        self._adapt(mean_occupancy)
        return super().close_window(mean_occupancy)
