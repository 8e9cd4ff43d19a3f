"""``thermal_study`` rows, pinned to literals.

The study settles one heater-feedback trimming model per wavelength
state and activity level.  Its numbers come from no other check, so
every row is pinned here exactly: flat-model power, settled trimming
power and lock state, per state and activity.
"""

from __future__ import annotations

import pytest

from repro.experiments import thermal_study
from repro.experiments.runner import clear_cache

#: (wavelengths, flat_model_w, trimming_idle_w, locked_idle,
#: trimming_busy_w, locked_busy) per state.
ROWS = [
    (64, 0.003328, 0.001996668746616541, True, 0.0007985577083048898, True),
    (48, 0.002496, 0.001497501559962406, True, 0.0005989182812286673, True),
    (32, 0.001664, 0.0009983343733082706, True, 0.0003992788541524449, True),
    (16, 0.000832, 0.0004991671866541353, True, 0.00019963942707622244, True),
    (8, 0.000416, 0.0004991671866541353, True, 0.00019963942707622244, True),
]

COLUMNS = (
    "wavelengths",
    "flat_model_w",
    "trimming_idle_w",
    "locked_idle",
    "trimming_busy_w",
    "locked_busy",
)


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_rows_match_the_pinned_literals(quick):
    clear_cache()
    try:
        result = thermal_study.run(quick=quick)
    finally:
        clear_cache()
    rows = [tuple(row[name] for name in COLUMNS) for row in result.rows]
    # repr() tells every float bit apart.
    assert repr(rows) == repr(ROWS)
    assert [list(row) for row in result.rows] == [list(COLUMNS)] * len(ROWS)
