"""Tests for repro.ml.lifecycle.drift — online drift detection."""

import numpy as np
import pytest

from repro.config import MLConfig, PhotonicConfig
from repro.core.ml_scaling import MLPowerScaler, StateSelector
from repro.ml.lifecycle.drift import DriftConfig, DriftMonitor
from repro.ml.ridge import RidgeRegression

D = 30


def _stationary_features(rng, scale=1.0):
    return scale * rng.normal(size=D)


def _monitor(**overrides) -> DriftMonitor:
    defaults = dict(
        config=DriftConfig(calibration_windows=5),
        feature_mean=np.zeros(D),
        feature_scale=np.ones(D),
    )
    defaults.update(overrides)
    return DriftMonitor(**defaults)


def _feed_stationary(monitor, windows, seed=0, residual_noise=1.0):
    rng = np.random.default_rng(seed)
    fired = []
    for _ in range(windows):
        predicted = 100.0
        actual = predicted + residual_noise * rng.normal()
        fired.append(
            monitor.observe(_stationary_features(rng), predicted, actual)
        )
    return fired


class TestDriftConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ewma_alpha": 0.0},
            {"ewma_alpha": 1.5},
            {"z_threshold": 0.0},
            {"patience": 0},
            {"calibration_windows": 1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DriftConfig(**kwargs)


class TestCalibration:
    def test_never_trips_during_calibration(self):
        """Even wild inputs cannot fire before the baseline exists."""
        monitor = _monitor(config=DriftConfig(calibration_windows=10))
        rng = np.random.default_rng(0)
        for i in range(10):
            features = 1e6 * rng.normal(size=D)
            assert monitor.observe(features, 0.0, 1e9) is False
        assert monitor.state.events == 0
        assert not monitor.drift_active


class TestStationary:
    def test_stationary_run_stays_quiet(self):
        monitor = _monitor()
        fired = _feed_stationary(monitor, 200)
        assert not any(fired)
        assert monitor.state.events == 0
        assert not monitor.state.retraining_recommended

    def test_z_scores_stay_small(self):
        monitor = _monitor()
        _feed_stationary(monitor, 200)
        assert monitor.state.feature_z < monitor.config.z_threshold
        assert monitor.state.residual_z < monitor.config.z_threshold


class TestShift:
    def test_feature_shift_trips(self):
        """A distribution-shifted workload fires a feature-signal event."""
        monitor = _monitor()
        _feed_stationary(monitor, 50)
        rng = np.random.default_rng(1)
        fired = [
            monitor.observe(
                20.0 + _stationary_features(rng), 100.0, 100.0 + rng.normal()
            )
            for _ in range(30)
        ]
        assert any(fired)
        assert monitor.drift_active
        assert monitor.state.retraining_recommended
        assert monitor.trips[-1][1] == "feature"

    def test_residual_blowup_trips(self):
        """Predictions going bad fire the residual signal."""
        monitor = _monitor()
        _feed_stationary(monitor, 50)
        rng = np.random.default_rng(2)
        fired = []
        for _ in range(30):
            # Features stay in-distribution; the model is just wrong now.
            fired.append(
                monitor.observe(_stationary_features(rng), 100.0, 500.0)
            )
        assert any(fired)
        assert monitor.trips[-1][1] == "residual"

    def test_worst_feature_identified(self):
        monitor = _monitor()
        _feed_stationary(monitor, 50)
        rng = np.random.default_rng(3)
        for _ in range(30):
            features = _stationary_features(rng)
            features[7] += 50.0
            monitor.observe(features, 100.0, 100.0)
        assert monitor.state.worst_feature == 7

    def test_calibration_baseline_without_scaler(self):
        """No training scaler -> the calibration prefix is the baseline."""
        monitor = DriftMonitor(config=DriftConfig(calibration_windows=10))
        _feed_stationary(monitor, 50)
        assert monitor.state.events == 0
        rng = np.random.default_rng(4)
        fired = [
            monitor.observe(
                50.0 + _stationary_features(rng), 100.0, 100.0
            )
            for _ in range(20)
        ]
        assert any(fired)


class TestPatienceAndRecovery:
    def test_one_event_per_excursion(self):
        """The rising edge fires once, not every window above threshold."""
        monitor = _monitor(config=DriftConfig(calibration_windows=5, patience=3))
        _feed_stationary(monitor, 50)
        rng = np.random.default_rng(5)
        for _ in range(30):
            monitor.observe(30.0 + _stationary_features(rng), 100.0, 100.0)
        assert monitor.state.events == 1

    def test_patience_delays_activation(self):
        monitor = _monitor(config=DriftConfig(calibration_windows=5, patience=4))
        _feed_stationary(monitor, 50)
        rng = np.random.default_rng(6)
        active_after = []
        for _ in range(4):
            monitor.observe(30.0 + _stationary_features(rng), 100.0, 100.0)
            active_after.append(monitor.drift_active)
        assert active_after == [False, False, False, True]

    def test_recovery_clears_active_flag(self):
        """Returning in-distribution deactivates drift (EWMA decays)."""
        monitor = _monitor()
        _feed_stationary(monitor, 50)
        rng = np.random.default_rng(7)
        for _ in range(20):
            monitor.observe(30.0 + _stationary_features(rng), 100.0, 100.0)
        assert monitor.drift_active
        _feed_stationary(monitor, 100, seed=8)
        assert not monitor.drift_active
        # ... but the recommendation to retrain is sticky.
        assert monitor.state.retraining_recommended

    def test_second_excursion_second_event(self):
        monitor = _monitor()
        _feed_stationary(monitor, 50)
        rng = np.random.default_rng(9)
        for _ in range(20):
            monitor.observe(30.0 + _stationary_features(rng), 100.0, 100.0)
        _feed_stationary(monitor, 100, seed=10)
        for _ in range(20):
            monitor.observe(30.0 + _stationary_features(rng), 100.0, 100.0)
        assert monitor.state.events == 2

    def test_state_to_dict_jsonable(self):
        import json

        monitor = _monitor()
        _feed_stationary(monitor, 20)
        assert json.loads(json.dumps(monitor.state.to_dict()))


# -- integration with the scaler ---------------------------------------------


def _scaler(drift_action="fallback", monitor=None, window=500):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(80, D))
    model = RidgeRegression(lam=1.0).fit(X, X @ rng.normal(size=D) + 50.0)
    config = MLConfig(drift_action=drift_action)
    selector = StateSelector(PhotonicConfig(), reservation_window=window)
    return MLPowerScaler(
        model,
        selector,
        config,
        drift_monitor=monitor,
        fallback_thresholds=(0.20, 0.10, 0.05, 0.02),
    )


class TestScalerFallback:
    def _tripped_monitor(self):
        monitor = _monitor(
            config=DriftConfig(
                calibration_windows=2, patience=1, z_threshold=1.0
            )
        )
        _feed_stationary(monitor, 10)
        rng = np.random.default_rng(11)
        for _ in range(5):
            monitor.observe(40.0 + _stationary_features(rng), 100.0, 100.0)
        assert monitor.drift_active
        return monitor

    def test_fallback_uses_occupancy_thresholds(self):
        """While drift is active, decisions follow the reactive ladder."""
        scaler = _scaler(monitor=self._tripped_monitor())
        features = np.full(D, 40.0)  # keeps the monitor tripped
        features[1] = features[3] = 0.9  # saturated buffers
        assert scaler.decide(features) == 64
        assert scaler.fallback_windows == 1

        features[1] = features[3] = 0.0  # idle buffers
        assert scaler.decide(features) == 8
        assert scaler.fallback_windows == 2

    def test_fallback_respects_max_state(self):
        scaler = _scaler(monitor=self._tripped_monitor())
        features = np.full(D, 40.0)
        features[1] = features[3] = 0.9
        assert scaler.decide(features, max_state=32) <= 32

    def test_flag_action_never_falls_back(self):
        """drift_action='flag' observes but does not change decisions."""
        flagged = _scaler(drift_action="flag", monitor=self._tripped_monitor())
        plain = _scaler(drift_action="flag", monitor=None)
        rng = np.random.default_rng(12)
        for _ in range(20):
            features = 40.0 + rng.normal(size=D)
            assert flagged.decide(features.copy()) == plain.decide(
                features.copy()
            )
        assert flagged.fallback_windows == 0

    def test_no_monitor_means_no_fallback(self):
        scaler = _scaler(drift_action="fallback", monitor=None)
        features = np.zeros(D)
        scaler.decide(features)
        assert scaler.fallback_windows == 0
