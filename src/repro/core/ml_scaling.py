"""ML-based proactive power scaling (Sec. III-D, IV-A/B).

Replaces Algorithm 1 steps 6-8: at every reservation-window boundary the
router feeds its Table III feature vector to a ridge-regression model
that predicts how many packets its cores will inject during the *next*
window, and Eq. 7 maps that prediction to the cheapest wavelength state
whose link capacity covers the predicted demand:

    PredictPkt * PktSz  <=  (WL_state / WL_max) * window_capacity.

Per Sec. IV-B the 8-wavelength state is excluded while the model is
trained and reintroduced afterwards purely to save power on near-idle
windows (``MLConfig.reintroduce_8wl``, handed to the selector as
``allow_8wl``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..config import MLConfig, PhotonicConfig
from ..ml.features import NUM_FEATURES
from ..ml.lifecycle.drift import DriftMonitor
from ..ml.lifecycle.quantized import QuantizedRidge
from ..ml.ridge import RidgeRegression
from ..obs import OBS
from .power_scaling import ClosedWindow, threshold_state
from .wavelength import WavelengthLadder

#: Energy of one ML inference (Sec. IV-B, Synopsys estimate).
ML_INFERENCE_ENERGY_J = 44.6e-12


class StateSelector:
    """Eq. 7: map a predicted packet count to a wavelength state.

    ``window_capacity_flits(state)`` is how many flits the link can
    serialize during one reservation window at that state; the selector
    picks the lowest state whose capacity covers the predicted flits.
    """

    def __init__(
        self,
        photonic: PhotonicConfig,
        reservation_window: int,
        avg_packet_flits: float = 3.0,
        allow_8wl: bool = True,
        capacity_multiplier: float = 1.0,
        headroom: float = 1.1,
    ) -> None:
        if reservation_window <= 0:
            raise ValueError("reservation_window must be positive")
        if avg_packet_flits <= 0:
            raise ValueError("avg_packet_flits must be positive")
        if capacity_multiplier <= 0:
            raise ValueError("capacity_multiplier must be positive")
        if headroom < 1.0:
            raise ValueError("headroom must be at least 1.0")
        self.ladder = WavelengthLadder(photonic)
        self.reservation_window = reservation_window
        self.avg_packet_flits = avg_packet_flits
        self.allow_8wl = allow_8wl
        self.capacity_multiplier = capacity_multiplier
        self.headroom = headroom
        #: (state, packets per window) for the candidate states, lowest
        #: power first: the Eq. 7 table every decision scans.
        self._capacities = [
            (state, self.window_capacity_packets(state))
            for state in self.candidate_states()
        ]

    def window_capacity_flits(self, state: int) -> float:
        """Flits the link can send in one window at ``state``.

        ``capacity_multiplier`` accounts for routers driving several
        parallel waveguides (the banked L3 router).
        """
        return (
            self.reservation_window
            * self.capacity_multiplier
            / self.ladder.serialization_cycles(state)
        )

    def window_capacity_packets(self, state: int) -> float:
        """Average-size packets the link can send in one window."""
        return self.window_capacity_flits(state) / self.avg_packet_flits

    def candidate_states(self) -> List[int]:
        """States the selector may choose, lowest power first."""
        states = (
            self.ladder.states
            if self.allow_8wl
            else self.ladder.states_without_lowest()
        )
        return sorted(states)

    def state_for_packets(
        self, predicted_packets: float, max_state: Optional[int] = None
    ) -> int:
        """The cheapest state whose capacity covers the prediction.

        ``headroom`` scales the predicted demand up before the Eq. 7
        comparison — the paper's thresholds were "chosen to balance
        performance and power", i.e. with slack for bandwidth lost to
        the CPU/GPU split and laser-stabilization stalls.

        ``max_state`` restricts the candidates to sustainable states
        when degraded hardware (wavelength faults, laser droop) has
        shrunk the ladder; demand exceeding every sustainable capacity
        selects the largest state still allowed.
        """
        demand = max(predicted_packets, 0.0) * self.headroom
        table = self._capacities
        if max_state is not None:
            allowed = [entry for entry in table if entry[0] <= max_state]
            if allowed:
                table = allowed
        for state, capacity in table:
            if demand <= capacity:
                return state
        return table[-1][0]


class MLPowerScaler:
    """Per-router proactive scaler: features -> ridge -> Eq. 7 state.

    One scaler instance serves one router; all routers share the same
    fitted :class:`RidgeRegression` (the paper trains a single global
    model with the L3-router indicator as feature 1).  The scaler keeps
    prediction history so NRMSE and state-accuracy can be computed after
    a run.
    """

    def __init__(
        self,
        model: RidgeRegression,
        selector: StateSelector,
        config: MLConfig,
        drift_monitor: Optional[DriftMonitor] = None,
        fallback_thresholds: Optional[Tuple[float, float, float, float]] = None,
    ) -> None:
        self.config = config
        self._deploy(model)
        #: Online residual/feature-shift watchdog (None = unmonitored).
        self.drift_monitor = drift_monitor
        self.drift_action = config.drift_action
        self.fallback_thresholds = fallback_thresholds
        self.fallback_windows = 0
        #: Whether the *most recent* decision came from the reactive
        #: fallback (read by the window-series recorder at each close).
        self.last_window_fallback = False
        self.selector = selector
        #: Energy of one inference.  The paper's 44.6 pJ assumes the
        #: 16-bit MAC unit, so a quantized model re-costs it via
        #: MLHardwareModel.for_bit_width (16-bit formats like q4.12 land
        #: exactly back on 44.6 pJ).
        self.inference_energy_j = ML_INFERENCE_ENERGY_J
        if self.quantized is not None:
            from ..power.ml_overhead import MLHardwareModel

            self.inference_energy_j = (
                MLHardwareModel()
                .for_bit_width(self.quantized.weight_format.total_bits)
                .inference_energy_pj()
                * 1e-12
            )
        self.predictions: List[float] = []
        self.decisions: List[int] = []
        self.labels: List[float] = []
        self._pending_label: Optional[float] = None
        self._drift_observed = 0
        #: Set on a drift event under drift_action="retrain"; the
        #: network's retrain coordinator latches and clears it.
        self.retrain_pending = False
        #: Feature snapshots paired with predictions (retrain mode only:
        #: feature_rows[i] produced predictions[i], whose realised
        #: target is labels[i]).
        self.feature_rows: List[np.ndarray] = []
        #: How many times this scaler's deployed model was hot-swapped.
        self.models_adopted = 0

    def _deploy(self, model: RidgeRegression) -> None:
        """Install ``model`` and, under a Qm.n spec, its fixed-point form.

        When ``quantized`` is set every prediction runs through the
        saturating-MAC path (the float model is kept for
        reference/NRMSE comparisons only).
        """
        if not model.is_fitted:
            raise ValueError("the ridge model must be fitted before use")
        self.model = model
        self.quantized: Optional[QuantizedRidge] = (
            QuantizedRidge.from_spec(model, self.config.quantization)
            if self.config.quantization
            else None
        )

    def close_window(self, window: ClosedWindow) -> int:
        """Label the window that ended, then decide the next one."""
        self.record_label(int(window.label))
        return self.decide(
            window.row, window.max_state, window.predicted, window.cycle
        )

    def predict_window_batch(self, matrix: np.ndarray) -> np.ndarray:
        """One inference over the feature rows of a close group.

        ``matrix`` is ``(k, NUM_FEATURES)``, one row per router closing
        on the same cycle (k = 1 included); the float path runs a
        single ``matrix @ weights`` matmul and the quantized path one
        row-parallel saturating-MAC sweep.  This is the *defining*
        inference semantics of a window close: a ``(k, n)`` GEMV is not
        guaranteed bitwise equal to k separate ``(1, n)`` calls on
        every BLAS, so both engines group by close cycle and feed every
        group through this one kernel
        (``decide(..., precomputed=row)`` then consumes the rows).
        """
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != NUM_FEATURES:
            raise ValueError(
                f"expected a (k, {NUM_FEATURES}) feature matrix, got "
                f"{matrix.shape}"
            )
        predictor = self.quantized if self.quantized is not None else self.model
        return np.asarray(predictor.predict(matrix), dtype=float).ravel()

    def decide(
        self,
        features: np.ndarray,
        max_state: Optional[int] = None,
        precomputed: Optional[float] = None,
        cycle: Optional[int] = None,
    ) -> int:
        """Predict next-window injections and pick the wavelength state.

        ``max_state`` caps the selectable ladder when faults have shrunk
        the sustainable state set (the router passes its fault
        injector's ``max_usable_state``), making the scaler fault-aware
        rather than clamped after the fact.

        ``precomputed`` supplies this router's row of the
        :meth:`predict_window_batch` inference over its close group
        (what the network's close path always passes); without it the
        row is predicted alone, which equals a group of one.

        ``cycle`` is the close cycle a drift trace instant is stamped
        with (None: a decision outside a run, traced without one).
        """
        features = np.asarray(features, dtype=float).ravel()
        if features.shape[0] != NUM_FEATURES:
            raise ValueError(
                f"expected {NUM_FEATURES} features, got {features.shape[0]}"
            )
        if precomputed is not None:
            predicted = float(precomputed)
        else:
            predictor = (
                self.quantized if self.quantized is not None else self.model
            )
            predicted = float(predictor.predict(features))
        self._observe_drift(features, predicted, cycle)
        if (
            self.drift_action == "fallback"
            and self.drift_monitor is not None
            and self.drift_monitor.drift_active
            and self.fallback_thresholds is not None
        ):
            state = self._fallback_state(features, max_state=max_state)
            self.fallback_windows += 1
            self.last_window_fallback = True
            if OBS.enabled:
                OBS.registry.counter(
                    "ml/fallback_windows",
                    help="windows decided by the reactive fallback during drift",
                ).inc()
        else:
            state = self.selector.state_for_packets(
                predicted, max_state=max_state
            )
            self.last_window_fallback = False
        self.predictions.append(predicted)
        self.decisions.append(state)
        if self.drift_action == "retrain":
            self.feature_rows.append(features)
        if OBS.enabled:
            OBS.registry.counter(
                "ml/inferences", help="ridge predictions made at window boundaries"
            ).inc()
            OBS.registry.counter(f"ml/decisions/{state}wl").inc()
        return state

    def _observe_drift(
        self, features: np.ndarray, predicted: float, cycle: Optional[int]
    ) -> None:
        """Feed the drift monitor with this window's evidence.

        Residuals need an aligned (prediction, label) pair; labels lag
        predictions by a window, so the newest complete pair is used
        exactly once and feature-only windows pass ``actual=None``.
        """
        monitor = self.drift_monitor
        if monitor is None:
            return
        n = min(len(self.labels), len(self.predictions))
        if n > self._drift_observed:
            pair_predicted = self.predictions[n - 1]
            pair_actual: Optional[float] = self.labels[n - 1]
            self._drift_observed = n
        else:
            pair_predicted = predicted
            pair_actual = None
        fired = monitor.observe(features, pair_predicted, pair_actual)
        if fired and self.drift_action == "retrain":
            self.retrain_pending = True
        if not (fired and OBS.enabled):
            return
        OBS.registry.counter(
            "ml/drift_events",
            help="drift excursions that crossed the patience threshold",
        ).inc()
        if cycle is not None:
            OBS.tracer.instant(
                "ml_drift",
                "ml",
                cycle,
                router=monitor.router_id,
                signal=monitor.trips[-1][1] if monitor.trips else "unknown",
                z=round(max(monitor.state.residual_z, monitor.state.feature_z), 3),
            )

    def _fallback_state(
        self, features: np.ndarray, max_state: Optional[int] = None
    ) -> int:
        """Reactive-policy decision from the window's measured occupancies.

        The band rule of :class:`~repro.core.power_scaling
        .ReactivePowerScaler` on the window-mean CPU/GPU input-buffer
        utilizations (Table III features 2 and 4), standing in for the
        per-cycle Buf_w accumulation.
        """
        assert self.fallback_thresholds is not None
        occ = 0.5 * (float(features[1]) + float(features[3]))
        occ = min(max(occ, 0.0), 1.0)
        states = self.selector.ladder.states
        state = threshold_state(
            occ, self.fallback_thresholds, states, self.selector.allow_8wl
        )
        if max_state is not None and state > max_state:
            allowed = [s for s in states if s <= max_state]
            if allowed:
                state = max(allowed)
        return state

    def record_label(self, injected_packets: int) -> None:
        """Record the realised injection count for the window just ended.

        Labels lag predictions by one window: the prediction made at
        boundary k targets the injections counted at boundary k+1.
        """
        if self._pending_label is not None:
            self.labels.append(self._pending_label)
            if OBS.enabled and len(self.labels) <= len(self.predictions):
                # labels[i] is the realised target of predictions[i].
                OBS.registry.histogram(
                    "ml/prediction_abs_error",
                    help="|predicted - actual| next-window injections",
                ).observe(
                    abs(self.predictions[len(self.labels) - 1] - self._pending_label)
                )
        self._pending_label = float(injected_packets)

    def aligned_history(self) -> "tuple[np.ndarray, np.ndarray]":
        """(targets, predictions) pairs aligned for scoring.

        The prediction made at boundary *k* forecasts the injections of
        window *k+1*; ``record_label`` is called one boundary later, so
        ``labels[i]`` already corresponds to ``predictions[i]``.
        """
        n = min(len(self.labels), len(self.predictions))
        return (
            np.asarray(self.labels[:n], dtype=float),
            np.asarray(self.predictions[:n], dtype=float),
        )

    def training_pairs(self) -> "tuple[np.ndarray, np.ndarray]":
        """(X, y) rows this scaler accumulated for online retraining.

        ``feature_rows[i]`` is the snapshot that produced
        ``predictions[i]``, whose realised next-window injection count
        is ``labels[i]`` — the same alignment the offline pipeline
        trains on.  Empty outside ``drift_action="retrain"``.
        """
        n = min(len(self.labels), len(self.feature_rows))
        if n == 0:
            return (
                np.empty((0, NUM_FEATURES), dtype=float),
                np.empty(0, dtype=float),
            )
        return (
            np.stack(self.feature_rows[:n]).astype(float),
            np.asarray(self.labels[:n], dtype=float),
        )

    def adopt_model(self, model) -> None:
        """Hot-swap the deployed model mid-run (online retraining).

        Re-derives the fixed-point form when a quantization spec is
        deployed and rebuilds the drift monitor against the *new*
        model's feature statistics, keeping the old monitor's router
        and signal settings (monitors are not resettable — a fresh
        calibration phase is the correct post-swap behaviour).
        Prediction/label/feature histories are kept: they are run
        artefacts, and the label alignment is index-based.
        """
        if not model.is_fitted:
            raise ValueError("cannot adopt an unfitted model")
        self._deploy(model)
        old = self.drift_monitor
        if old is not None:
            self.drift_monitor = DriftMonitor.for_model(
                model,
                self.config,
                router_id=old.router_id,
                monitor_features=old.monitor_features,
            )
        self.retrain_pending = False
        self.models_adopted += 1
