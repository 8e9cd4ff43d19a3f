"""Benchmark regenerating Fig. 6 (power-scaling throughput)."""

from conftest import run_once


def test_fig6(benchmark, quick):
    result = run_once(benchmark, "fig6", quick)
    print("\n" + result.format_table())
    rows = {row["config"]: row for row in result.rows}

    # The 64 WL baseline loses nothing by definition.
    assert rows["64WL"]["throughput_loss_pct"] == 0.0

    # Paper shape: every scaled configuration stays within a bounded
    # throughput loss of the always-on baseline (paper worst case 14%).
    for label, row in rows.items():
        assert row["throughput_loss_pct"] < 25.0, label

    # ML RW500 with and without 8WL perform the same on throughput.
    assert abs(
        rows["ML RW500"]["throughput_loss_pct"]
        - rows["ML RW500 no8WL"]["throughput_loss_pct"]
    ) < 5.0
