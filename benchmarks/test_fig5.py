"""Benchmark regenerating Fig. 5 (energy per bit comparison)."""

from conftest import run_once


def test_fig5(benchmark, quick):
    result = run_once(benchmark, "fig5", quick)
    print("\n" + result.format_table())
    by_wl = {row["wavelengths"]: row for row in result.rows}

    # Paper shape 1: at constrained bandwidth PEARL-Dyn beats CMESH on
    # energy/bit by a wide margin.
    for wl in (32, 16):
        assert by_wl[wl]["pearl_dyn_epb_pj"] < by_wl[wl]["cmesh_epb_pj"]

    # Paper shape 2: PEARL-Dyn never loses to PEARL-FCFS.
    for wl in (64, 32, 16):
        assert (
            by_wl[wl]["pearl_dyn_epb_pj"]
            <= by_wl[wl]["pearl_fcfs_epb_pj"] * 1.02
        )

    # Paper shape 3: PEARL throughput exceeds the bandwidth-matched
    # CMESH at every state.
    for wl in (64, 32, 16):
        assert (
            by_wl[wl]["pearl_dyn_throughput"] > by_wl[wl]["cmesh_throughput"]
        )
