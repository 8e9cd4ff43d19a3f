"""Prediction-quality evaluation (Sec. IV-C's NRMSE paragraph).

Reports validation-phase and test-phase NRMSE for ML RW500 and
ML RW2000, plus the top-state (64 WL) selection accuracy.  The paper:
RW500 drops 0.79 -> 0.68 from validation to test; RW2000 drops
0.79 -> 0.05 yet still selects the 64 WL state with 99.9% accuracy,
which is why it preserves throughput.
"""

from __future__ import annotations

import numpy as np

from ..config import PhotonicConfig
from ..core.ml_scaling import StateSelector
from ..ml.metrics import nrmse, state_selection_accuracy, top_state_accuracy
from ..ml.pipeline import train_default_model
from . import power_scaling_suite
from .runner import ExperimentResult, Results

#: The test-phase predictions come from the shared power-scaling sweep.
jobs = power_scaling_suite.jobs


def table(quick: bool, seed: int, results: Results) -> ExperimentResult:
    """NRMSE and state-accuracy table for both window sizes."""
    result = ExperimentResult(name="ml_quality: NRMSE and state accuracy")
    suite = power_scaling_suite.outcomes(quick, seed, results)
    for window, label in ((500, "ML RW500"), (2000, "ML RW2000")):
        training = train_default_model(window, quick=quick)
        selector = StateSelector(
            PhotonicConfig(), reservation_window=window, allow_8wl=False
        )
        to_state = selector.state_for_packets
        # The aligned test-phase history the sweep's ML runs recorded.
        targets = np.asarray(suite[label].history_targets, dtype=float)
        predictions = np.asarray(suite[label].history_predictions, dtype=float)
        row = {
            "config": label,
            "validation_nrmse": training.validation_nrmse,
            "test_nrmse": (
                nrmse(targets, predictions) if targets.size else float("nan")
            ),
        }
        if targets.size:
            row["state_accuracy"] = state_selection_accuracy(
                targets, predictions, to_state
            )
            try:
                row["top_state_accuracy"] = top_state_accuracy(
                    targets, predictions, to_state, selector.ladder.max_state
                )
            except ValueError:
                row["top_state_accuracy"] = float("nan")
        result.add_row(**row)
    result.notes.append(
        "paper: RW500 0.79->0.68, RW2000 0.79->0.05 NRMSE; RW2000 "
        "top-state accuracy 99.9%"
    )
    return result

