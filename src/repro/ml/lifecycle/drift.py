"""Online drift detection for the deployed power model.

PROTEUS-style runtime self-monitoring: a model trained on the Table IV
benchmark mix keeps predicting whatever it is shown, so nothing in the
closed loop notices when the workload leaves the training
distribution.  The monitor watches two independent signals per router,
both as EWMA z-scores against a training-time baseline:

* **prediction residuals** — |predicted − realised| next-window
  injections, baselined against the first ``calibration_windows``
  deployed windows (deployment-matched, unlike the validation RMSE);
* **feature shift** — the EWMA of each standardized feature against
  the training distribution recorded in the model's scaler (zero mean,
  unit variance by construction, so the z-score is direct).

When either signal stays above ``z_threshold`` for ``patience``
consecutive windows the monitor *trips*: it increments the
``ml/drift_events`` obs counter, records a trace event, and latches
``drift_active`` until the signal recovers.  What tripping *does* is
policy (`MLConfig.drift_action`):

* ``"flag"`` (default) — purely observational: counters/flags only,
  decisions unchanged, results bit-identical to an unmonitored run;
* ``"fallback"`` — the scaler abandons the model while drift is
  active and applies the reactive occupancy thresholds to the window's
  measured buffer occupancies (features 2-5), i.e. it degrades to the
  paper's rule-based Algorithm 1 policy rather than trusting a model
  that is out of its depth.  Retraining is flagged either way via
  ``retraining_recommended``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ...config import MLConfig


@dataclass(frozen=True)
class DriftConfig:
    """Monitor knobs (mirrored from :class:`repro.config.MLConfig`)."""

    ewma_alpha: float = 0.2
    z_threshold: float = 4.0
    patience: int = 3
    calibration_windows: int = 10

    def __post_init__(self) -> None:
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.z_threshold <= 0:
            raise ValueError("z_threshold must be positive")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.calibration_windows < 2:
            raise ValueError("calibration needs at least 2 windows")


@dataclass
class DriftState:
    """Snapshot of one monitor's current assessment."""

    windows: int = 0
    residual_z: float = 0.0
    feature_z: float = 0.0
    worst_feature: int = -1
    drift_active: bool = False
    events: int = 0
    retraining_recommended: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "windows": self.windows,
            "residual_z": self.residual_z,
            "feature_z": self.feature_z,
            "worst_feature": self.worst_feature,
            "drift_active": self.drift_active,
            "events": self.events,
            "retraining_recommended": self.retraining_recommended,
        }


class DriftMonitor:
    """Per-router residual + feature-shift watchdog.

    ``feature_mean``/``feature_scale`` describe the training
    distribution (straight from the registry record or the model's
    standardizer); without them feature shift is baselined on the
    first calibration windows instead.  ``monitor_features=False``
    disables the feature-shift signal entirely (residual only) — used
    for routers whose feature distribution is structurally unlike the
    training population, such as the L3 router.
    """

    def __init__(
        self,
        config: Optional[DriftConfig] = None,
        feature_mean: Optional[np.ndarray] = None,
        feature_scale: Optional[np.ndarray] = None,
        router_id: int = 0,
        monitor_features: bool = True,
    ) -> None:
        self.config = config or DriftConfig()
        self.router_id = router_id
        self.monitor_features = monitor_features
        self._train_mean = (
            np.asarray(feature_mean, dtype=float)
            if feature_mean is not None
            else None
        )
        scale = (
            np.asarray(feature_scale, dtype=float)
            if feature_scale is not None
            else None
        )
        if scale is not None:
            scale = np.where(scale < 1e-12, 1.0, scale)
        self._train_scale = scale

        self._ewma_features: Optional[np.ndarray] = None
        # The feature z-scores of the latest window, rewritten in place.
        self._feature_zs: Optional[np.ndarray] = None
        # Residual baseline: Welford over the calibration prefix.
        self._res_count = 0
        self._res_mean = 0.0
        self._res_m2 = 0.0
        self._ewma_residual: Optional[float] = None
        # Feature fallback baseline (no scaler): calibration mean/var.
        self._feat_count = 0
        self._feat_mean: Optional[np.ndarray] = None
        self._feat_m2: Optional[np.ndarray] = None

        self._exceed_streak = 0
        self.state = DriftState()
        #: Cycle-stamped trip log: (window_index, signal, z).
        self.trips: List[tuple] = []

    @classmethod
    def for_model(
        cls,
        model,
        ml: MLConfig,
        router_id: int = 0,
        monitor_features: bool = True,
    ) -> "DriftMonitor":
        """The monitor of one router running ``model`` under ``ml``.

        Feature shift is baselined on the model's training scaler when
        it has one (the calibration windows otherwise).
        """
        scaler = getattr(model, "_scaler", None)
        return cls(
            DriftConfig(
                ewma_alpha=ml.drift_ewma_alpha,
                z_threshold=ml.drift_z_threshold,
                patience=ml.drift_patience,
                calibration_windows=ml.drift_calibration_windows,
            ),
            feature_mean=scaler.mean if scaler is not None else None,
            feature_scale=scaler.scale if scaler is not None else None,
            router_id=router_id,
            monitor_features=monitor_features,
        )

    # -- observations --------------------------------------------------------

    def observe(
        self, features: np.ndarray, predicted: float, actual: Optional[float]
    ) -> bool:
        """Feed one window; returns True when a *new* drift event fires.

        ``actual`` is the realised label for the previous prediction
        (None until one exists — predictions lag labels by a window).
        """
        features = np.asarray(features, dtype=float).ravel()
        cfg = self.config
        self.state.windows += 1

        self._update_features(features)
        if actual is not None:
            self._update_residual(abs(float(predicted) - float(actual)))

        if self.state.windows <= cfg.calibration_windows:
            # Still establishing the baseline: never trip.
            self.state.residual_z = 0.0
            self.state.feature_z = 0.0
            self._exceed_streak = 0
            return False

        residual_z = self._residual_z()
        feature_z, worst = self._feature_z()
        self.state.residual_z = residual_z
        self.state.feature_z = feature_z
        self.state.worst_feature = worst

        exceeded = max(residual_z, feature_z) > cfg.z_threshold
        fired = False
        if exceeded:
            self._exceed_streak += 1
            if self._exceed_streak == cfg.patience:
                # Rising edge: one event per excursion.
                self.state.events += 1
                self.state.retraining_recommended = True
                signal = (
                    "residual" if residual_z >= feature_z else "feature"
                )
                self.trips.append(
                    (self.state.windows, signal, max(residual_z, feature_z))
                )
                fired = True
            if self._exceed_streak >= cfg.patience:
                self.state.drift_active = True
        else:
            self._exceed_streak = 0
            self.state.drift_active = False
        return fired

    @property
    def drift_active(self) -> bool:
        """True while the monitor considers the model untrustworthy."""
        return self.state.drift_active

    # -- internals -----------------------------------------------------------

    def _update_features(self, features: np.ndarray) -> None:
        alpha = self.config.ewma_alpha
        ewma = self._ewma_features
        if ewma is None:
            self._ewma_features = features.copy()
        else:
            # alpha * x + (1 - alpha) * ewma, in place: the same two
            # products and one sum per element, so the same bits.
            ewma *= 1.0 - alpha
            ewma += alpha * features
        if self._train_mean is None:
            # Calibration-window baseline (models without a scaler).
            self._feat_count += 1
            if self._feat_mean is None:
                self._feat_mean = features.copy()
                self._feat_m2 = np.zeros_like(features)
            elif self._feat_count <= self.config.calibration_windows:
                delta = features - self._feat_mean
                self._feat_mean += delta / self._feat_count
                self._feat_m2 += delta * (features - self._feat_mean)

    def _update_residual(self, residual: float) -> None:
        alpha = self.config.ewma_alpha
        if self._res_count < self.config.calibration_windows:
            self._res_count += 1
            delta = residual - self._res_mean
            self._res_mean += delta / self._res_count
            self._res_m2 += delta * (residual - self._res_mean)
        if self._ewma_residual is None:
            self._ewma_residual = residual
        else:
            self._ewma_residual = (
                alpha * residual + (1.0 - alpha) * self._ewma_residual
            )

    def _residual_z(self) -> float:
        if self._ewma_residual is None or self._res_count < 2:
            return 0.0
        std = math.sqrt(self._res_m2 / max(self._res_count - 1, 1))
        std = max(std, 1e-9, 0.05 * abs(self._res_mean))
        return abs(self._ewma_residual - self._res_mean) / std

    def _feature_z(self) -> tuple:
        if not self.monitor_features or self._ewma_features is None:
            return 0.0, -1
        if self._train_mean is not None and self._train_scale is not None:
            mean, scale = self._train_mean, self._train_scale
        elif self._feat_mean is not None and self._feat_count >= 2:
            mean = self._feat_mean
            scale = np.sqrt(self._feat_m2 / max(self._feat_count - 1, 1))
            scale = np.where(scale < 1e-9, 1.0, scale)
        else:
            return 0.0, -1
        z = self._feature_zs
        if z is None:
            z = self._feature_zs = np.empty_like(self._ewma_features)
        np.subtract(self._ewma_features, mean, out=z)
        np.abs(z, out=z)
        np.divide(z, scale, out=z)
        worst = int(np.argmax(z))
        return float(z[worst]), worst
