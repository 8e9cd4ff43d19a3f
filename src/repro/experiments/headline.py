"""The paper's two headline claims, checked end-to-end.

1. "34% performance improvement over a baseline electrical CMESH while
   consuming 25% less energy per bit when dynamically reallocating
   bandwidth" — from the Fig. 9 throughput comparison and the Fig. 5
   energy-per-bit sweep.
2. "40-65% in power savings with 0-14% in throughput loss depending on
   the reservation window size" — from the Figs. 6/7 power-scaling
   sweep.
"""

from __future__ import annotations

from typing import List

from . import fig5_energy, fig9_comparison, power_scaling_suite
from .parallel import JobSpec
from .runner import ExperimentResult, Results


def jobs(quick: bool = True, seed: int = 1) -> List[JobSpec]:
    """The Fig. 9, Fig. 5 and power-scaling sweeps the claims read."""
    return (
        fig9_comparison.jobs(quick, seed)
        + fig5_energy.jobs(quick, seed)
        + power_scaling_suite.jobs(quick, seed)
    )


def table(quick: bool, seed: int, results: Results) -> ExperimentResult:
    """Evaluate both headline claims against the simulated numbers."""
    result = ExperimentResult(name="headline claims")

    fig9 = fig9_comparison.table(quick, seed, results)
    by_config = {row["config"]: row for row in fig9.rows}
    gain = float(by_config["PEARL-Dyn (64WL)"]["gain_vs_cmesh_pct"])
    result.add_row(
        claim="throughput gain vs CMESH",
        paper="34%",
        measured_pct=gain,
    )

    fig5 = fig5_energy.table(quick, seed, results)
    constrained = [row for row in fig5.rows if row["wavelengths"] in (32, 16)]
    epb_reduction = sum(
        1.0 - float(row["pearl_dyn_epb_pj"]) / float(row["cmesh_epb_pj"])
        for row in constrained
    ) / len(constrained)
    result.add_row(
        claim="energy/bit reduction vs CMESH (constrained)",
        paper=">=25%",
        measured_pct=100.0 * epb_reduction,
    )

    suite = power_scaling_suite.outcomes(quick, seed, results)
    baseline = suite["64WL"]
    scaled = [
        suite[label]
        for label in ("Dyn RW500", "Dyn RW2000", "ML RW500", "ML RW2000")
    ]
    savings = [100.0 * o.power_savings_vs(baseline) for o in scaled]
    losses = [100.0 * o.throughput_loss_vs(baseline) for o in scaled]
    result.add_row(
        claim="power savings range",
        paper="40-65%",
        measured_min_pct=min(savings),
        measured_max_pct=max(savings),
    )
    result.add_row(
        claim="throughput loss range",
        paper="0-14%",
        measured_min_pct=max(0.0, min(losses)),
        measured_max_pct=max(losses),
    )
    return result
