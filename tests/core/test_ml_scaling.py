"""Tests for repro.core.ml_scaling — Eq. 7 selection and the scaler."""

import numpy as np
import pytest

from repro.config import MLConfig, PhotonicConfig
from repro.core.ml_scaling import MLPowerScaler, StateSelector
from repro.ml.features import NUM_FEATURES
from repro.ml.ridge import RidgeRegression


def _selector(window=500, allow_8wl=True, headroom=1.0, multiplier=1.0):
    return StateSelector(
        PhotonicConfig(),
        reservation_window=window,
        avg_packet_flits=2.0,
        allow_8wl=allow_8wl,
        capacity_multiplier=multiplier,
        headroom=headroom,
    )


def _fitted_model(slope=1.0):
    """A trivially fitted ridge model: y ~= slope * x0."""
    rng = np.random.default_rng(0)
    X = rng.random((200, NUM_FEATURES))
    y = slope * X[:, 0]
    return RidgeRegression(lam=0.01).fit(X, y)


class TestStateSelector:
    def test_capacity_monotone_in_state(self):
        sel = _selector()
        capacities = [sel.window_capacity_packets(s) for s in (8, 16, 32, 48, 64)]
        assert capacities == sorted(capacities)

    def test_window_capacity_values(self):
        sel = _selector(window=500)
        assert sel.window_capacity_flits(64) == pytest.approx(250)
        assert sel.window_capacity_flits(16) == pytest.approx(62.5)

    def test_zero_demand_selects_lowest(self):
        assert _selector().state_for_packets(0.0) == 8

    def test_zero_demand_without_8wl(self):
        assert _selector(allow_8wl=False).state_for_packets(0.0) == 16

    def test_huge_demand_selects_max(self):
        assert _selector().state_for_packets(1e9) == 64

    def test_negative_prediction_clamped(self):
        assert _selector().state_for_packets(-5.0) == 8

    def test_selection_monotone_in_demand(self):
        sel = _selector()
        states = [sel.state_for_packets(d) for d in range(0, 300, 5)]
        assert states == sorted(states)

    def test_headroom_is_conservative(self):
        """More headroom never selects a lower state."""
        lean, safe = _selector(headroom=1.0), _selector(headroom=2.0)
        for demand in range(0, 200, 10):
            assert safe.state_for_packets(demand) >= lean.state_for_packets(
                demand
            )

    def test_capacity_multiplier_scales(self):
        single, banked = _selector(), _selector(multiplier=8.0)
        assert banked.window_capacity_packets(64) == pytest.approx(
            8 * single.window_capacity_packets(64)
        )

    def test_candidate_states_order(self):
        assert _selector().candidate_states() == [8, 16, 32, 48, 64]
        assert _selector(allow_8wl=False).candidate_states() == [16, 32, 48, 64]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            _selector(window=0)
        with pytest.raises(ValueError):
            StateSelector(PhotonicConfig(), 500, avg_packet_flits=0)
        with pytest.raises(ValueError):
            StateSelector(PhotonicConfig(), 500, headroom=0.5)
        with pytest.raises(ValueError):
            StateSelector(PhotonicConfig(), 500, capacity_multiplier=0)


class TestMLPowerScaler:
    def _scaler(self):
        return MLPowerScaler(
            model=_fitted_model(), selector=_selector(), config=MLConfig()
        )

    def test_requires_fitted_model(self):
        with pytest.raises(ValueError):
            MLPowerScaler(
                model=RidgeRegression(),
                selector=_selector(),
                config=MLConfig(),
            )

    def test_decide_records_history(self):
        scaler = self._scaler()
        state = scaler.decide(np.zeros(NUM_FEATURES))
        assert state in (8, 16, 32, 48, 64)
        assert len(scaler.predictions) == 1
        assert scaler.decisions == [state]

    def test_decide_validates_feature_count(self):
        with pytest.raises(ValueError):
            self._scaler().decide(np.zeros(5))

    def test_labels_lag_one_window(self):
        """record_label at boundary k stores the label for window k-1."""
        scaler = self._scaler()
        scaler.record_label(10)
        assert scaler.labels == []
        scaler.record_label(20)
        assert scaler.labels == [10.0]

    def test_aligned_history_truncates(self):
        scaler = self._scaler()
        for i in range(3):
            scaler.record_label(i)
            scaler.decide(np.zeros(NUM_FEATURES))
        targets, predictions = scaler.aligned_history()
        assert targets.shape == predictions.shape

