"""Benchmarks for the DESIGN.md ablation studies."""

from repro.experiments import ablations

from conftest import run_once

#: Collection seed of the two fitting studies (the default pipeline's).
TRAINING_SEED = 2018


def test_dba_granularity(benchmark, quick):
    result = run_once(benchmark, ablations.DBA_GRANULARITY, quick)
    print("\n" + result.format_table())
    rows = {row["step_pct"]: row for row in result.rows}
    assert set(rows) == {25.0, 12.5, 6.25}
    # All granularities must land in the same throughput regime; the
    # paper found 25% best but the margins are small.
    values = [row["throughput_flits_per_cycle"] for row in result.rows]
    assert max(values) / min(values) < 1.3


def test_upper_bounds(benchmark, quick):
    result = run_once(benchmark, ablations.UPPER_BOUNDS, quick)
    print("\n" + result.format_table())
    assert len(result.rows) == 5
    paper_row = next(
        row
        for row in result.rows
        if row["cpu_upper_pct"] == 16.0 and row["gpu_upper_pct"] == 6.0
    )
    best = max(row["throughput_flits_per_cycle"] for row in result.rows)
    # The paper's brute-force optimum stays competitive (within 15%).
    assert paper_row["throughput_flits_per_cycle"] > 0.85 * best


def test_feature_reduction(benchmark, quick):
    result = run_once(
        benchmark, ablations.FEATURE_REDUCTION, quick, seed=TRAINING_SEED
    )
    print("\n" + result.format_table())
    rows = {row["features"]: row for row in result.rows}
    # Paper: the full feature set is never worse than the reductions.
    full = rows["all_30"]["validation_nrmse"]
    for label, row in rows.items():
        assert full >= row["validation_nrmse"] - 0.1, label


def test_low_state(benchmark, quick):
    result = run_once(benchmark, ablations.LOW_STATE, quick)
    print("\n" + result.format_table())
    rows = {row["config"]: row for row in result.rows}
    assert (
        rows["ML RW500"]["power_savings_pct"]
        >= rows["ML RW500 no8WL"]["power_savings_pct"] - 1.0
    )


def test_predictor_comparison(benchmark, quick):
    result = run_once(
        benchmark, ablations.PREDICTOR_COMPARISON, quick, seed=TRAINING_SEED
    )
    print("\n" + result.format_table())
    rows = {row["predictor"]: row for row in result.rows}
    assert len(rows) == 5
    # The paper's ridge must at least match the trivial baseline.
    assert (
        rows["ridge (paper)"]["validation_nrmse"]
        >= rows["last_value"]["validation_nrmse"] - 0.15
    )


def test_adaptive_thresholds(benchmark, quick):
    result = run_once(benchmark, ablations.ADAPTIVE_THRESHOLDS, quick)
    print("\n" + result.format_table())
    rows = {row["policy"]: row for row in result.rows}
    static = rows["64WL static"]
    for label in ("reactive (fixed thresholds)", "adaptive (self-tuning)"):
        # Both scaled variants save power vs the static baseline...
        assert rows[label]["laser_power_w"] < static["laser_power_w"]
        # ...without catastrophic throughput damage.
        assert (
            rows[label]["throughput_flits_per_cycle"]
            > 0.7 * static["throughput_flits_per_cycle"]
        )
