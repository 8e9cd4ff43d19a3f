"""Benchmark regenerating Fig. 7 (average laser power)."""

from conftest import run_once


def test_fig7(benchmark, quick):
    result = run_once(benchmark, "fig7", quick)
    print("\n" + result.format_table())
    rows = {row["config"]: row for row in result.rows}

    # Paper shape: every scaling configuration saves laser power.
    for label, row in rows.items():
        if label == "64WL":
            continue
        assert row["power_savings_pct"] > 15.0, label

    # The 8 WL state never hurts: ML RW500 with it saves at least as
    # much as without it (paper: 65.5% vs 60.7%).
    assert (
        rows["ML RW500"]["power_savings_pct"]
        >= rows["ML RW500 no8WL"]["power_savings_pct"] - 1.0
    )

    # Savings land in the paper's reported band (40-65%), with slack
    # for the quick pair subset.
    best = max(
        row["power_savings_pct"]
        for label, row in rows.items()
        if label != "64WL"
    )
    assert 25.0 < best < 80.0
