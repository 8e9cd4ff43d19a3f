"""Fig. 10 — ML power-scaling throughput across reservation windows.

Sweeps the ML configuration over RW 100 / 500 / 1000 / 2000.  The
paper's shape: throughput rises with the window size (RW2000 best,
nearly matching the static 64 WL state; RW500 and RW1000 drop).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..config import PearlConfig
from ..ml.pipeline import ensure_model_file
from ..noc.router import PowerPolicyKind
from .parallel import JobSpec, pair_spec, pearl_job
from .runner import (
    ExperimentResult,
    Results,
    experiment_pairs,
    simulation_config,
)

#: Window sizes the paper sweeps.
WINDOWS = (100, 500, 1000, 2000)


def jobs(quick: bool = True, seed: int = 1) -> List[JobSpec]:
    """The static 64 WL baseline, then ML scaling at each window."""
    pairs = experiment_pairs(quick)
    base = PearlConfig(simulation=simulation_config(quick))
    specs = [
        pearl_job(base, pair_spec(pair, seed + i), seed=seed + i)
        for i, pair in enumerate(pairs)
    ]
    for window in WINDOWS:
        config = base.with_reservation_window(window)
        model_path = ensure_model_file(window, quick=quick)
        specs.extend(
            pearl_job(
                config,
                pair_spec(pair, seed + i),
                seed=seed + i,
                power_policy=PowerPolicyKind.ML,
                ml_model_path=model_path,
            )
            for i, pair in enumerate(pairs)
        )
    return specs


def table(quick: bool, seed: int, results: Results) -> ExperimentResult:
    """Throughput of ML scaling at each reservation-window size."""
    result = ExperimentResult(name="fig10: ML window-size sweep")
    n = len(experiment_pairs(quick))
    runs = [results[spec] for spec in jobs(quick, seed)]
    baseline = float(np.mean([job.throughput() for job in runs[:n]]))
    result.add_row(
        window="64WL static",
        throughput_flits_per_cycle=baseline,
        loss_vs_static_pct=0.0,
    )
    for index, window in enumerate(WINDOWS):
        chunk = runs[(index + 1) * n : (index + 2) * n]
        mean = float(np.mean([job.throughput() for job in chunk]))
        result.add_row(
            window=f"ML RW{window}",
            throughput_flits_per_cycle=mean,
            loss_vs_static_pct=100.0 * (1.0 - mean / baseline),
        )
    result.notes.append(
        "paper: best throughput at RW2000; RW500/RW1000 drop vs 64WL"
    )
    return result
