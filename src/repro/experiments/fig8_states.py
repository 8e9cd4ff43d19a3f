"""Fig. 8 — wavelength-state residency under ML power scaling.

Fraction of simulation time the routers spend in each of the five laser
states, for ML RW500 and ML RW2000.  The paper's shape: ML RW2000
spends just under 30% of time at 64 WL (which preserves throughput),
while ML RW500 spreads into the low-power states.
"""

from __future__ import annotations

from . import power_scaling_suite
from .runner import ExperimentResult, Results

#: The two ML configurations Fig. 8 plots.
CONFIGS = ("ML RW500", "ML RW2000")


#: The shared power-scaling sweep's jobs.
jobs = power_scaling_suite.jobs


def table(quick: bool, seed: int, results: Results) -> ExperimentResult:
    """Aggregate per-state residency from the shared sweep."""
    suite = power_scaling_suite.outcomes(quick, seed, results)
    result = ExperimentResult(name="fig8: wavelength-state residency")
    for label in CONFIGS:
        outcome = suite[label]
        row = {"config": label}
        for state in sorted(outcome.residency, reverse=True):
            row[f"wl{state}_pct"] = 100.0 * outcome.residency[state]
        result.add_row(**row)
    result.notes.append(
        "paper: ML RW2000 just under 30% at 64WL; ML RW500 favours "
        "low-power states"
    )
    return result
