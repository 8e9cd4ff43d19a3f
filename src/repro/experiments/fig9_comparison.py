"""Fig. 9 — throughput at RW500 (no 8 WL) against the baselines.

Compares PEARL-Dyn (64 WL), PEARL-FCFS (64 WL), Dyn RW500, ML RW500
(without the low state) and the electrical CMESH.  The paper's shape:
the dynamic and ML power-scaling configurations beat CMESH by 34% and
20% respectively; Dyn RW500 tracks PEARL-FCFS closely.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

import numpy as np

from ..config import PearlConfig
from ..ml.pipeline import ensure_model_file
from ..noc.router import PowerPolicyKind
from .parallel import JobSpec, cmesh_job, pair_spec, pearl_job
from .runner import (
    ExperimentResult,
    Results,
    experiment_pairs,
    simulation_config,
)

#: The five configurations, in each pair's job order.
LABELS = (
    "PEARL-Dyn (64WL)",
    "PEARL-FCFS (64WL)",
    "Dyn RW500",
    "ML RW500",
    "CMESH",
)


def jobs(quick: bool = True, seed: int = 1) -> List[JobSpec]:
    """The five Fig. 9 configurations over the test pairs."""
    config = PearlConfig(
        simulation=simulation_config(quick)
    ).with_reservation_window(500)
    no_8wl = config.replace(
        ml=dataclasses.replace(config.ml, reintroduce_8wl=False)
    )
    model_path = ensure_model_file(500, quick=quick)
    specs = []
    for i, pair in enumerate(experiment_pairs(quick)):
        trace = pair_spec(pair, seed + i)
        specs.append(pearl_job(config, trace, seed=seed + i))
        specs.append(
            pearl_job(
                config,
                trace,
                seed=seed + i,
                use_dynamic_bandwidth=False,
            )
        )
        specs.append(
            pearl_job(
                config,
                trace,
                seed=seed + i,
                power_policy=PowerPolicyKind.REACTIVE,
            )
        )
        specs.append(
            pearl_job(
                no_8wl,
                trace,
                seed=seed + i,
                power_policy=PowerPolicyKind.ML,
                ml_model_path=model_path,
            )
        )
        specs.append(cmesh_job(config, trace, seed=seed + i))
    return specs


def table(quick: bool, seed: int, results: Results) -> ExperimentResult:
    """Mean throughput per configuration and its gain over CMESH."""
    throughputs: Dict[str, List[float]] = {label: [] for label in LABELS}
    for index, spec in enumerate(jobs(quick, seed)):
        throughputs[LABELS[index % len(LABELS)]].append(
            results[spec].throughput()
        )
    result = ExperimentResult(name="fig9: RW500 throughput comparison")
    cmesh_mean = float(np.mean(throughputs["CMESH"]))
    for label, values in throughputs.items():
        mean = float(np.mean(values))
        result.add_row(
            config=label,
            throughput_flits_per_cycle=mean,
            gain_vs_cmesh_pct=100.0 * (mean / cmesh_mean - 1.0),
        )
    result.notes.append(
        "paper: dynamic and ML power scaling beat CMESH by 34% and 20%"
    )
    return result
