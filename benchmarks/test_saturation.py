"""Benchmark for the saturation-sweep extension."""

from conftest import run_once


def test_saturation(benchmark, quick):
    result = run_once(benchmark, "saturation", quick)
    print("\n" + result.format_table())

    # Accepted throughput is non-decreasing in offered load up to
    # saturation, then flat — so the max is at the highest loads.
    dyn = result.column("pearl_dyn_throughput")
    assert dyn[0] < dyn[-1] * 1.05

    # At the heaviest load the photonic crossbar beats the mesh.
    last = result.rows[-1]
    assert last["pearl_dyn_throughput"] > last["cmesh_throughput"]

    # Latency grows with load for the mesh.
    cmesh_latency = result.column("cmesh_latency")
    assert cmesh_latency[-1] > cmesh_latency[0]
