"""Fig. 4 — CPU/GPU packet breakdown per benchmark pair.

For each test pair, the percentage of injected packets generated by the
CPU versus the GPU side.  In the paper CPU benchmarks create more
packets than GPU benchmarks overall, with the balance varying by pair.
"""

from __future__ import annotations

from typing import List

from ..config import PearlConfig
from .parallel import JobSpec, pair_spec, trace_job
from .runner import (
    ExperimentResult,
    Results,
    describe_pair,
    experiment_pairs,
    simulation_config,
)


def jobs(quick: bool = True, seed: int = 1) -> List[JobSpec]:
    """One trace-statistics job per pair (trace-level, no sim)."""
    config = PearlConfig(simulation=simulation_config(quick))
    return [
        trace_job(config, pair_spec(pair, seed))
        for pair in experiment_pairs(quick)
    ]


def table(quick: bool, seed: int, results: Results) -> ExperimentResult:
    """The per-pair packet breakdown."""
    result = ExperimentResult(name="fig4: CPU-GPU packet breakdown")
    for pair, spec in zip(experiment_pairs(quick), jobs(quick, seed)):
        job = results[spec]
        cpu = int(job.extras["cpu_packets"])
        gpu = int(job.extras["gpu_packets"])
        total = cpu + gpu
        result.add_row(
            pair=describe_pair(pair),
            cpu_percent=100.0 * cpu / total if total else 0.0,
            gpu_percent=100.0 * gpu / total if total else 0.0,
            total_packets=total,
        )
    return result
