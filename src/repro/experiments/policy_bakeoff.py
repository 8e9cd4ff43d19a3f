"""Extension: competing adaptation policies under one harness.

Not a paper figure — a controlled bake-off of the four adaptive
power-management policies the simulator implements (see
``docs/policies.md``):

* **reactive** — PEARL's threshold ladder driven by per-window demand;
* **ml** — the trained ridge predictor closing the loop one window
  ahead (the paper's headline mechanism);
* **proteus** — PROTEUS-style loss-aware rules that cap each router's
  wavelength state at what its laser budget can sustain given the
  per-link optical loss of the floorplan;
* **d3noc** — D3NOC-style data-driven reconfiguration that retunes
  both the wavelength state (EWMA demand) and the DBA wavelength-pool
  split from buffer-occupancy features at every reservation window.

Each policy runs the same benchmark pairs twice: fault-free and with a
25% uniform wavelength fault striking one third into measurement.  The
result table crosses **energy per bit × mean/p95 latency × resilience**
(throughput retention under the fault, faulted/clean), so the policies
are comparable on all three axes at once.  A static 64 WL row anchors
the comparison.

Expected shape: every adaptive policy beats static on laser power;
ml tracks reactive's latency at lower energy (the paper's Fig. 9
story); proteus matches reactive when the default laser budget is
unconstrained; d3noc trades a little latency for pool splits pinned a
full window.  Under faults all policies keep retention well above
zero — the ladder clamps, nothing livelocks.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import PearlConfig
from ..faults import FaultSchedule, uniform_wavelength_fault
from ..ml.pipeline import ensure_model_file
from ..noc.router import PowerPolicyKind
from ..power.energy import energy_per_bit_pj
from .parallel import JobSpec, pair_spec, pearl_job
from .runner import (
    ExperimentResult,
    Results,
    describe_pair,
    experiment_pairs,
    simulation_config,
)

#: Policies bake-off rows cross (static is the anchor row).
POLICIES = (
    PowerPolicyKind.STATIC,
    PowerPolicyKind.REACTIVE,
    PowerPolicyKind.ML,
    PowerPolicyKind.PROTEUS,
    PowerPolicyKind.D3NOC,
)

#: Fraction of each router's wavelengths the resilience leg disables.
FAULT_FRACTION = 0.25


def _schedule(config: PearlConfig) -> FaultSchedule:
    """25% wavelength fault striking one third into measurement."""
    sim = config.simulation
    onset = sim.warmup_cycles + (sim.total_cycles - sim.warmup_cycles) // 3
    return FaultSchedule(
        wavelength_faults=(
            uniform_wavelength_fault(FAULT_FRACTION, start=onset),
        )
    )


def _pairs(quick: bool):
    """The bake-off's pairs: one in quick mode, all 16 in full."""
    pairs = experiment_pairs(quick)
    return pairs[:1] if quick else pairs


def jobs(quick: bool = True, seed: int = 1) -> List[JobSpec]:
    """A fault-free and a faulted run per pair and policy."""
    config = PearlConfig(simulation=simulation_config(quick))
    model_path = ensure_model_file(
        config.power_scaling.reservation_window, quick=quick
    )
    faults = _schedule(config)
    specs = []
    for pair in _pairs(quick):
        trace = pair_spec(pair, seed)
        for policy in POLICIES:
            path: Optional[str] = (
                str(model_path) if policy is PowerPolicyKind.ML else None
            )
            static = 64 if policy is PowerPolicyKind.STATIC else None
            for schedule in (None, faults):
                specs.append(
                    pearl_job(
                        config,
                        trace,
                        seed=seed,
                        power_policy=policy,
                        static_state=static,
                        ml_model_path=path,
                        faults=schedule,
                    )
                )
    return specs


def table(quick: bool, seed: int, results: Results) -> ExperimentResult:
    """Energy × latency × resilience across the adaptation policies."""
    result = ExperimentResult(name="extension: adaptation-policy bake-off")
    runs = iter([results[spec] for spec in jobs(quick, seed)])
    for pair in _pairs(quick):
        for policy in POLICIES:
            clean, faulted = next(runs), next(runs)
            clean_tp = clean.throughput()
            faulted_tp = faulted.throughput()
            result.add_row(
                pair=describe_pair(pair),
                policy=policy.value,
                energy_pj_per_bit=energy_per_bit_pj(clean.stats),
                laser_power_w=clean.mean_laser_power_w,
                mean_latency=clean.stats.mean_latency(),
                p95_latency=clean.stats.latency_percentile(95),
                throughput=clean_tp,
                faulted_throughput=faulted_tp,
                retention=(faulted_tp / clean_tp if clean_tp > 0 else 0.0),
                faulted_latency=faulted.stats.mean_latency(),
                fault_clamps=faulted.stats.fault_clamp_events,
            )
    result.notes.append(
        "each policy runs fault-free and with a "
        f"{FAULT_FRACTION:.0%} wavelength fault one third into "
        "measurement; retention = faulted/clean throughput; "
        "static 64 WL anchors the energy axis (docs/policies.md)"
    )
    return result
