"""Benchmark for the thermal trimming extension study."""

from conftest import run_once


def test_thermal_study(benchmark, quick):
    result = run_once(benchmark, "thermal_study", quick)
    print("\n" + result.format_table())
    rows = {row["wavelengths"]: row for row in result.rows}

    # Bank gating: trimming power scales down with the laser state.
    idle = [rows[s]["trimming_idle_w"] for s in (64, 48, 32, 16)]
    assert idle == sorted(idle, reverse=True)

    # Self-heating: a busy link needs less heater power than an idle one.
    for state in (64, 32):
        assert (
            rows[state]["trimming_busy_w"] <= rows[state]["trimming_idle_w"]
        )

    # The heater loop keeps every powered bank locked in both regimes.
    for row in rows.values():
        assert row["locked_idle"] and row["locked_busy"]
