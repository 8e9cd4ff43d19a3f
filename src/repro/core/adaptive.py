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
from .power_scaling import ClosedWindow, ReactivePowerScaler
from .wavelength import WavelengthLadder


class AdaptiveReactiveScaler(ReactivePowerScaler):
    """Reactive scaler with self-tuning occupancy thresholds."""

    def __init__(
        self,
        config: PowerScalingConfig,
        ladder: WavelengthLadder,
        target_band: Tuple[float, float] = (0.02, 0.15),
        adjust_factor: float = 1.25,
        scale_bounds: Tuple[float, float] = (0.125, 8.0),
    ) -> None:
        super().__init__(config, ladder)
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
        """The four thresholds after adaptation, still descending.

        The inherited band rule compares against these.
        """
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

    def close_window(self, window: ClosedWindow) -> int:
        """Adapt on the window mean, then select as usual."""
        self._adapt(window.buf_mean)
        return super().close_window(window)
