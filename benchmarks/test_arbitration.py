"""Benchmark for the R-SWMR vs token-MWSR arbitration extension."""

from conftest import run_once


def test_arbitration(benchmark, quick):
    result = run_once(benchmark, "arbitration", quick)
    print("\n" + result.format_table())
    per_pair = [row for row in result.rows if row["pair"] != "MEAN"]

    # R-SWMR's latency advantage holds on every pair (Sec. II-A).
    for row in per_pair:
        assert row["rswmr_latency"] <= row["mwsr_latency"] * 1.1, row["pair"]

    # Token waits actually occurred (the arbitration cost is real).
    assert sum(row["token_wait_events"] for row in per_pair) > 0

    # Aggregate throughput: R-SWMR at least matches token-MWSR.
    mean = next(row for row in result.rows if row["pair"] == "MEAN")
    assert mean["rswmr_throughput"] >= 0.9 * mean["mwsr_throughput"]
