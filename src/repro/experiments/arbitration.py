"""Extension: R-SWMR vs token-MWSR arbitration comparison (Sec. II-A).

PEARL chooses reservation-assisted SWMR over the token-arbitrated MWSR
crossbars of Corona/3D-NoC "to reduce the hardware complexity and
control while minimizing the latency".  This experiment quantifies
that choice on the test pairs: same clusters, buffers, responder and
laser state — only the media-access mechanism differs.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..config import PearlConfig
from .parallel import mwsr_job, pair_spec, pearl_job, run_jobs
from .runner import (
    ExperimentResult,
    cached,
    describe_pair,
    experiment_pairs,
    simulation_config,
)


def run(quick: bool = True, seed: int = 1) -> ExperimentResult:
    """Throughput/latency of R-SWMR vs token-MWSR per test pair."""

    def compute() -> ExperimentResult:
        result = ExperimentResult(name="extension: R-SWMR vs token-MWSR")
        config = PearlConfig(simulation=simulation_config(quick))
        pairs = experiment_pairs(quick)
        specs = []
        for i, pair in enumerate(pairs):
            trace = pair_spec(pair, seed + i)
            specs.append(pearl_job(config, trace, seed=seed + i))
            specs.append(mwsr_job(config, trace, seed=seed + i))
        jobs = iter(run_jobs(specs))
        swmr_thr: List[float] = []
        mwsr_thr: List[float] = []
        swmr_lat: List[float] = []
        mwsr_lat: List[float] = []
        waits = 0
        for pair in pairs:
            swmr, mwsr = next(jobs), next(jobs)
            pair_waits = int(mwsr.extras["token_wait_events"])
            swmr_thr.append(swmr.throughput())
            mwsr_thr.append(mwsr.throughput())
            swmr_lat.append(swmr.stats.mean_latency())
            mwsr_lat.append(mwsr.stats.mean_latency())
            waits += pair_waits
            result.add_row(
                pair=describe_pair(pair),
                rswmr_throughput=swmr.throughput(),
                mwsr_throughput=mwsr.throughput(),
                rswmr_latency=swmr.stats.mean_latency(),
                mwsr_latency=mwsr.stats.mean_latency(),
                token_wait_events=pair_waits,
            )
        result.add_row(
            pair="MEAN",
            rswmr_throughput=float(np.mean(swmr_thr)),
            mwsr_throughput=float(np.mean(mwsr_thr)),
            rswmr_latency=float(np.mean(swmr_lat)),
            mwsr_latency=float(np.mean(mwsr_lat)),
            token_wait_events=waits,
        )
        result.notes.append(
            "paper Sec. II-A: R-SWMR avoids token arbitration latency"
        )
        return result

    return cached(("arbitration", quick, seed), compute)
