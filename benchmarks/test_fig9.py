"""Benchmark regenerating Fig. 9 (RW500 throughput vs baselines)."""

from conftest import run_once


def test_fig9(benchmark, quick):
    result = run_once(benchmark, "fig9", quick)
    print("\n" + result.format_table())
    rows = {row["config"]: row for row in result.rows}

    # Paper headline: the photonic configurations beat CMESH.
    for label in ("PEARL-Dyn (64WL)", "Dyn RW500", "ML RW500"):
        assert rows[label]["gain_vs_cmesh_pct"] > 0.0, label

    # Paper: PEARL-Dyn outperforms CMESH by ~34%; accept a broad band.
    assert 10.0 < rows["PEARL-Dyn (64WL)"]["gain_vs_cmesh_pct"] < 120.0

    # Dyn RW500 tracks the unscaled baselines closely (paper: ~1.3%).
    dyn = rows["Dyn RW500"]["throughput_flits_per_cycle"]
    base = rows["PEARL-Dyn (64WL)"]["throughput_flits_per_cycle"]
    assert dyn > 0.75 * base
