"""Benchmark regenerating the Sec. IV-C prediction-quality numbers."""

import math

from conftest import run_once


def test_ml_quality(benchmark, quick):
    result = run_once(benchmark, "ml_quality", quick)
    print("\n" + result.format_table())
    rows = {row["config"]: row for row in result.rows}

    for label in ("ML RW500", "ML RW2000"):
        row = rows[label]
        # Validation fits meaningfully better than predicting noise.
        assert row["validation_nrmse"] > -0.5
        assert row["validation_nrmse"] <= 1.0
        if not math.isnan(row["test_nrmse"]):
            assert row["test_nrmse"] <= 1.0

    # Paper shape: despite any NRMSE drop, the model recognises
    # full-bandwidth windows well (paper: 99.9% for RW2000).
    row = rows["ML RW2000"]
    if not math.isnan(row.get("top_state_accuracy", float("nan"))):
        assert row["top_state_accuracy"] > 0.5
