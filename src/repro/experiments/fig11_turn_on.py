"""Fig. 11 — sensitivity to the laser turn-on (stabilization) time.

Sweeps the on-chip laser turn-on delay over 2/4/16/32 ns for reactive
power scaling at RW500 and RW2000.  The paper's shape: average laser
*power* is essentially flat (<1% variation) across turn-on times, while
*throughput* degrades with slower lasers because the link is dark
during stabilization (up to ~18% loss).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..config import PearlConfig
from ..noc.router import PowerPolicyKind
from .parallel import JobSpec, pair_spec, pearl_job
from .runner import (
    ExperimentResult,
    Results,
    experiment_pairs,
    simulation_config,
)

#: Turn-on delays (ns) the paper sweeps.
TURN_ON_NS = (2.0, 4.0, 16.0, 32.0)

#: Reservation windows the paper evaluates.
WINDOWS = (500, 2000)


def jobs(quick: bool = True, seed: int = 1) -> List[JobSpec]:
    """Reactive scaling per window, turn-on time and pair."""
    pairs = experiment_pairs(quick)
    specs = []
    for window in WINDOWS:
        for turn_on in TURN_ON_NS:
            config = (
                PearlConfig(simulation=simulation_config(quick))
                .with_reservation_window(window)
                .with_turn_on_ns(turn_on)
            )
            specs.extend(
                pearl_job(
                    config,
                    pair_spec(pair, seed + i),
                    seed=seed + i,
                    power_policy=PowerPolicyKind.REACTIVE,
                )
                for i, pair in enumerate(pairs)
            )
    return specs


def table(quick: bool, seed: int, results: Results) -> ExperimentResult:
    """Laser power and throughput across turn-on times and windows."""
    result = ExperimentResult(name="fig11: laser turn-on sensitivity")
    pairs = experiment_pairs(quick)
    runs = iter([results[spec] for spec in jobs(quick, seed)])
    for window in WINDOWS:
        reference_throughput = None
        for turn_on in TURN_ON_NS:
            powers: List[float] = []
            throughputs: List[float] = []
            stalls = 0
            for _ in pairs:
                run = next(runs)
                powers.append(run.mean_laser_power_w)
                throughputs.append(run.throughput())
                stalls += run.laser_stall_cycles
            throughput = float(np.mean(throughputs))
            if reference_throughput is None:
                reference_throughput = throughput
            result.add_row(
                config=f"Dyn RW{window}",
                turn_on_ns=turn_on,
                laser_power_w=float(np.mean(powers)),
                throughput_flits_per_cycle=throughput,
                throughput_loss_vs_2ns_pct=100.0
                * (1.0 - throughput / reference_throughput),
                stall_cycles=stalls,
            )
    result.notes.append(
        "paper: <1% power variation; throughput loss grows with "
        "turn-on time (up to ~18%)"
    )
    return result
