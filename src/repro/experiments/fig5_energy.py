"""Fig. 5 — energy per bit of PEARL-Dyn vs PEARL-FCFS vs CMESH.

Three static wavelength configurations (64, 32, 16 WL) for the two
PEARL variants, with the CMESH link bandwidth reduced proportionally
(divisor 2/4/8) "to make it comparable to the other photonic networks"
as in the paper.  The paper's shape: PEARL-Dyn <= PEARL-FCFS << CMESH
in energy/bit at constrained bandwidth, with PEARL-Dyn's advantage over
FCFS growing as bandwidth shrinks.
"""

from __future__ import annotations

from ..config import PearlConfig
from ..power.energy import energy_per_bit_pj
from .parallel import cmesh_job, pair_spec, pearl_job, run_jobs
from .runner import (
    ExperimentResult,
    cached,
    experiment_pairs,
    simulation_config,
)

#: Static states paired with the equivalent CMESH bandwidth divisor.
WL_CONFIGS = ((64, 2), (32, 4), (16, 8))


def run(quick: bool = True, seed: int = 1) -> ExperimentResult:
    """Sweep static wavelength states over the test pairs."""

    def compute() -> ExperimentResult:
        result = ExperimentResult(name="fig5: energy per bit")
        config = PearlConfig(simulation=simulation_config(quick))
        pairs = experiment_pairs(quick)
        specs = []
        for wavelengths, divisor in WL_CONFIGS:
            for i, pair in enumerate(pairs):
                trace = pair_spec(pair, seed + i)
                specs.append(
                    pearl_job(
                        config,
                        trace,
                        seed=seed + i,
                        static_state=wavelengths,
                    )
                )
                specs.append(
                    pearl_job(
                        config,
                        trace,
                        seed=seed + i,
                        static_state=wavelengths,
                        use_dynamic_bandwidth=False,
                    )
                )
                specs.append(
                    cmesh_job(
                        config,
                        trace,
                        seed=seed + i,
                        bandwidth_divisor=divisor,
                    )
                )
        jobs = iter(run_jobs(specs))
        for wavelengths, divisor in WL_CONFIGS:
            dyn_epb, fcfs_epb, cmesh_epb = [], [], []
            dyn_thr, fcfs_thr, cmesh_thr = [], [], []
            for _ in pairs:
                dyn, fcfs, cmesh = next(jobs), next(jobs), next(jobs)
                dyn_epb.append(energy_per_bit_pj(dyn.stats))
                fcfs_epb.append(energy_per_bit_pj(fcfs.stats))
                cmesh_epb.append(energy_per_bit_pj(cmesh.stats))
                dyn_thr.append(dyn.throughput())
                fcfs_thr.append(fcfs.throughput())
                cmesh_thr.append(cmesh.throughput())
            n = len(pairs)
            result.add_row(
                wavelengths=wavelengths,
                cmesh_divisor=divisor,
                pearl_dyn_epb_pj=sum(dyn_epb) / n,
                pearl_fcfs_epb_pj=sum(fcfs_epb) / n,
                cmesh_epb_pj=sum(cmesh_epb) / n,
                pearl_dyn_throughput=sum(dyn_thr) / n,
                pearl_fcfs_throughput=sum(fcfs_thr) / n,
                cmesh_throughput=sum(cmesh_thr) / n,
            )
        result.notes.append(
            "paper: PEARL-Dyn -19.7%/-3.2% epb vs FCFS (constrained), "
            "-40.7%/-34.4% vs CMESH at 32/16 WL"
        )
        return result

    return cached(("fig5", quick, seed), compute)
