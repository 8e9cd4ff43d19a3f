"""Benchmark regenerating Fig. 11 (laser turn-on sensitivity)."""

import pytest

from conftest import run_once


def test_fig11(benchmark, quick):
    result = run_once(benchmark, "fig11", quick)
    print("\n" + result.format_table())
    for window in ("Dyn RW500", "Dyn RW2000"):
        rows = [r for r in result.rows if r["config"] == window]
        assert [r["turn_on_ns"] for r in rows] == [2.0, 4.0, 16.0, 32.0]

        # Paper shape 1: laser power varies little with turn-on time.
        powers = [r["laser_power_w"] for r in rows]
        assert max(powers) / min(powers) < 1.15

        # Paper shape 2: stall cycles grow monotonically with turn-on.
        stalls = [r["stall_cycles"] for r in rows]
        assert stalls[-1] > stalls[0]

        # Paper shape 3: throughput loss stays within ~18% + slack.
        for row in rows:
            assert row["throughput_loss_vs_2ns_pct"] < 30.0
