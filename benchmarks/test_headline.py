"""Benchmark checking the paper's two headline claims end-to-end."""

from conftest import run_once


def test_headline(benchmark, quick):
    result = run_once(benchmark, "headline", quick)
    print("\n" + result.format_table())
    rows = {row["claim"]: row for row in result.rows}

    # Claim 1: PEARL-Dyn gains throughput over CMESH (paper: 34%).
    assert float(rows["throughput gain vs CMESH"]["measured_pct"]) > 10.0

    # Claim 1b: less energy per bit than CMESH under constrained
    # bandwidth (paper: >= 25%).
    assert (
        float(
            rows["energy/bit reduction vs CMESH (constrained)"]["measured_pct"]
        )
        > 10.0
    )

    # Claim 2: meaningful power savings across window sizes.
    assert float(rows["power savings range"]["measured_max_pct"]) > 25.0

    # Claim 2b: throughput loss bounded (paper: 0-14%).
    assert float(rows["throughput loss range"]["measured_max_pct"]) < 25.0
