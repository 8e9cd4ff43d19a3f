"""Benchmark regenerating Fig. 10 (ML reservation-window sweep)."""

from conftest import run_once


def test_fig10(benchmark, quick):
    result = run_once(benchmark, "fig10", quick)
    print("\n" + result.format_table())
    rows = {row["window"]: row for row in result.rows}

    # Every ML window keeps a bounded loss against the static 64 WL.
    for label, row in rows.items():
        assert row["loss_vs_static_pct"] < 30.0, label

    # Paper shape: RW2000 is the throughput-preserving configuration —
    # it loses no more than the small-window settings (with slack).
    assert (
        rows["ML RW2000"]["loss_vs_static_pct"]
        <= rows["ML RW100"]["loss_vs_static_pct"] + 8.0
    )
