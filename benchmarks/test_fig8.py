"""Benchmark regenerating Fig. 8 (wavelength-state residency)."""

import pytest

from conftest import run_once


def test_fig8(benchmark, quick):
    result = run_once(benchmark, "fig8", quick)
    print("\n" + result.format_table())
    for row in result.rows:
        state_cols = [v for k, v in row.items() if k.startswith("wl")]
        assert sum(state_cols) == pytest.approx(100.0, abs=1.0)
        # The network spends time in more than one state.
        assert sum(1 for v in state_cols if v > 1.0) >= 2

    rows = {row["config"]: row for row in result.rows}
    # Paper shape: the longer window is the more conservative one —
    # ML RW2000 spends at least as much time at 64 WL as ML RW500.
    assert (
        rows["ML RW2000"]["wl64_pct"] >= rows["ML RW500"]["wl64_pct"] - 5.0
    )
