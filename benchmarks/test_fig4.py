"""Benchmark regenerating Fig. 4 (CPU-GPU packet breakdown)."""

import pytest

from conftest import run_once


def test_fig4(benchmark, quick):
    result = run_once(benchmark, "fig4", quick)
    print("\n" + result.format_table())
    for row in result.rows:
        assert row["cpu_percent"] + row["gpu_percent"] == pytest.approx(100.0)
        # Paper Fig. 4: CPU benchmarks create more packets overall;
        # every pair has a nonzero share of both.
        assert 0 < row["gpu_percent"] < 100
    assert result.mean("cpu_percent") > 50.0
