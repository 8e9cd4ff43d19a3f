"""Tests for repro.core.adaptive — the self-tuning reactive scaler."""

import pytest

from repro.config import PhotonicConfig, PowerScalingConfig
from repro.core.adaptive import AdaptiveReactiveScaler
from repro.core.wavelength import WavelengthLadder


def _scaler(**kwargs):
    return AdaptiveReactiveScaler(
        PowerScalingConfig(reservation_window=100),
        WavelengthLadder(PhotonicConfig()),
        **kwargs,
    )


def _run_windows(scaler, occupancy, windows):
    return [scaler.close_window(occupancy) for _ in range(windows)]


class TestAdaptation:
    def test_starts_at_configured_thresholds(self):
        scaler = _scaler()
        assert scaler.threshold_scale == 1.0
        assert scaler.current_thresholds() == PowerScalingConfig().thresholds()

    def test_pressure_lowers_thresholds(self):
        scaler = _scaler()
        _run_windows(scaler, occupancy=0.5, windows=5)
        assert scaler.threshold_scale < 1.0

    def test_idleness_raises_thresholds(self):
        scaler = _scaler()
        _run_windows(scaler, occupancy=0.005, windows=5)
        assert scaler.threshold_scale > 1.0

    def test_in_band_occupancy_leaves_scale_alone(self):
        scaler = _scaler(target_band=(0.02, 0.15))
        _run_windows(scaler, occupancy=0.08, windows=5)
        assert scaler.threshold_scale == 1.0

    def test_scale_bounded(self):
        scaler = _scaler(scale_bounds=(0.5, 2.0))
        _run_windows(scaler, occupancy=0.9, windows=50)
        assert scaler.threshold_scale >= 0.5
        scaler2 = _scaler(scale_bounds=(0.5, 2.0))
        _run_windows(scaler2, occupancy=0.0, windows=50)
        assert scaler2.threshold_scale <= 2.0

    def test_thresholds_stay_descending(self):
        scaler = _scaler()
        _run_windows(scaler, occupancy=0.9, windows=10)
        thresholds = scaler.current_thresholds()
        assert list(thresholds) == sorted(thresholds, reverse=True)


class TestBehaviouralEffect:
    def test_adapted_scaler_upgrades_sooner_under_pressure(self):
        """After sustained pressure the same occupancy maps higher."""
        adaptive = _scaler()
        _run_windows(adaptive, occupancy=0.5, windows=8)
        static = _scaler()
        # A mid occupancy that the virgin thresholds map to 48 WL.
        assert adaptive.select_state(0.12) >= static.select_state(0.12)

    def test_adapted_scaler_saves_more_when_idle(self):
        adaptive = _scaler()
        _run_windows(adaptive, occupancy=0.001, windows=8)
        # The raised thresholds map a small occupancy lower than before.
        static = _scaler()
        assert adaptive.select_state(0.03) <= static.select_state(0.03)

    def test_history_recorded(self):
        scaler = _scaler()
        _run_windows(scaler, occupancy=0.5, windows=3)
        assert len(scaler.scale_history) == 3


class TestValidation:
    def test_invalid_band(self):
        with pytest.raises(ValueError):
            _scaler(target_band=(0.5, 0.2))

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            _scaler(adjust_factor=1.0)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            _scaler(scale_bounds=(2.0, 4.0))
