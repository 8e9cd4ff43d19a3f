"""Extension: load-throughput saturation sweep (PEARL vs CMESH).

Not a paper figure, but the canonical NoC characterisation underlying
Fig. 9's comparison: sweep uniform-random offered load and record
accepted throughput and latency for PEARL-Dyn, PEARL-FCFS and the
bandwidth-matched CMESH.  The photonic crossbar should saturate later
and flatter than the mesh.
"""

from __future__ import annotations

from typing import List

from ..config import PearlConfig
from .parallel import JobSpec, cmesh_job, pearl_job, uniform_spec
from .runner import ExperimentResult, Results, simulation_config

#: Offered per-cluster injection rates swept (packets/cycle/core type).
LOADS = (0.02, 0.05, 0.1, 0.2, 0.4)


def jobs(quick: bool = True, seed: int = 1) -> List[JobSpec]:
    """PEARL-Dyn, PEARL-FCFS and CMESH at each offered load."""
    config = PearlConfig(simulation=simulation_config(quick))
    specs = []
    for rate in LOADS:
        trace = uniform_spec(rate, seed)
        specs.append(pearl_job(config, trace, seed=seed))
        specs.append(
            pearl_job(config, trace, seed=seed, use_dynamic_bandwidth=False)
        )
        specs.append(cmesh_job(config, trace, seed=seed))
    return specs


def table(quick: bool, seed: int, results: Results) -> ExperimentResult:
    """Accepted throughput and latency across the three networks."""
    result = ExperimentResult(name="extension: saturation sweep")
    runs = iter([results[spec] for spec in jobs(quick, seed)])
    for rate in LOADS:
        dyn, fcfs, cmesh = next(runs), next(runs), next(runs)
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
