"""Fig. 7 — average laser power of the power-scaling configurations.

The paper's shape: ML RW500 with the 8 WL state saves the most
(65.5%), ML RW500 without it 60.7%, Dyn RW2000 55.8%, Dyn RW500 46%,
ML RW2000 42% — all against the constant 64 WL baseline.
"""

from __future__ import annotations

from . import power_scaling_suite
from .power_scaling_suite import SUITE_LABELS
from .runner import ExperimentResult, Results


#: The shared power-scaling sweep's jobs.
jobs = power_scaling_suite.jobs


def table(quick: bool, seed: int, results: Results) -> ExperimentResult:
    """Aggregate the shared power-scaling sweep into the Fig. 7 table."""
    suite = power_scaling_suite.outcomes(quick, seed, results)
    baseline = suite["64WL"]
    result = ExperimentResult(name="fig7: average laser power")
    for label in SUITE_LABELS:
        outcome = suite[label]
        result.add_row(
            config=label,
            laser_power_w=outcome.laser_power_w,
            power_savings_pct=100.0 * outcome.power_savings_vs(baseline),
        )
    result.notes.append(
        "paper: ML RW500 65.5%, ML RW500 no8WL 60.7%, Dyn RW2000 55.8%, "
        "Dyn RW500 46%, ML RW2000 42% savings vs 64WL"
    )
    return result
