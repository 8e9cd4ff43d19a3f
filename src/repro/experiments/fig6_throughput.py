"""Fig. 6 — throughput of the power-scaling configurations.

Throughput of the 64 WL baseline, reactive scaling (Dyn RW500/RW2000)
and ML scaling (ML RW500 with/without the 8 WL state, ML RW2000),
plus per-config throughput loss against the baseline.  The paper's
shape: ML RW2000 ~0.3% loss, Dyn RW2000 ~8% loss, Dyn RW500 ~1.3%
loss, ML RW500 ~14% loss.
"""

from __future__ import annotations

from . import power_scaling_suite
from .power_scaling_suite import SUITE_LABELS
from .runner import ExperimentResult, Results


#: The shared power-scaling sweep's jobs.
jobs = power_scaling_suite.jobs


def table(quick: bool, seed: int, results: Results) -> ExperimentResult:
    """Aggregate the shared power-scaling sweep into the Fig. 6 table."""
    suite = power_scaling_suite.outcomes(quick, seed, results)
    baseline = suite["64WL"]
    result = ExperimentResult(name="fig6: power-scaling throughput")
    for label in SUITE_LABELS:
        outcome = suite[label]
        result.add_row(
            config=label,
            throughput_flits_per_cycle=outcome.throughput,
            throughput_loss_pct=100.0 * outcome.throughput_loss_vs(baseline),
        )
    result.notes.append(
        "paper: ML RW2000 -0.3%, Dyn RW2000 -8%, Dyn RW500 -1.3%, "
        "ML RW500 -14% vs 64WL"
    )
    return result
