"""Collective workloads under NRZ vs PAM4 across adaptation policies.

The grid the ISSUE's tentpole asks for: every collective schedule ×
{reactive, ml, proteus, d3noc} × {nrz, pam4}, with the ML rows run both
purely observed (``drift_action="flag"``) and with the closed online
retraining loop (``drift_action="retrain"``).  The deployed model is
fitted on PARSEC-style deployment samples (see
:func:`repro.ml.pipeline.deployment_fitted_model`), so collective
traffic is genuinely out of its training distribution — the drift
columns show the monitor firing and, under ``retrain``, the promoted
replacement models.

PAM4 halves serialization latency per wavelength state but pays the
BER-driven laser/receiver penalty; the ``energy_pj_per_bit`` column
makes that cross-layer trade visible per policy, and PROTEUS rows show
the tightened per-router loss caps (the penalty raises the required
laser output like extra waveguide loss).
"""

from __future__ import annotations

import dataclasses
import tempfile
from typing import Optional

from ..config import PearlConfig, SimulationConfig
from ..ml.pipeline import deployment_fitted_model
from ..ml.ridge import RidgeRegression
from ..noc.network import PearlNetwork
from ..noc.router import PowerPolicyKind
from ..power.energy import energy_per_bit_pj
from ..traffic.collectives import COLLECTIVE_ALGORITHMS, generate_collective_trace
from .runner import FULL_CYCLES, QUICK_CYCLES, ExperimentResult, cached

#: Quick mode exercises one bandwidth-optimal schedule; full sweeps all.
QUICK_ALGORITHMS = ("allreduce_ring",)

#: Adaptation policies crossed against the signaling formats.
POLICY_GRID = ("reactive", "ml", "proteus", "d3noc")

#: Reservation window short enough that phase boundaries land inside
#: distinct windows (collective steps are tens of cycles long).
WINDOW = 200


def run(quick: bool = True, seed: int = 1) -> ExperimentResult:
    """NRZ vs PAM4 × policy grid over the collective workload family."""

    def compute() -> ExperimentResult:
        result = ExperimentResult(
            name="collective_study: collectives x policies x signaling"
        )
        warmup, cycles = QUICK_CYCLES if quick else FULL_CYCLES
        algorithms = QUICK_ALGORITHMS if quick else COLLECTIVE_ALGORITHMS
        base = PearlConfig(
            simulation=SimulationConfig(
                warmup_cycles=warmup, measure_cycles=cycles
            )
        ).with_reservation_window(WINDOW)
        model = deployment_fitted_model(seed=seed)

        for algorithm in algorithms:
            for signaling in ("nrz", "pam4"):
                config = base
                if signaling != "nrz":
                    config = base.replace(
                        photonic=dataclasses.replace(
                            base.photonic, signaling=signaling
                        )
                    )
                trace = generate_collective_trace(
                    algorithm,
                    config.architecture,
                    duration=config.simulation.total_cycles,
                    seed=seed,
                )
                for policy in POLICY_GRID:
                    if policy == "ml":
                        for action in ("flag", "retrain"):
                            run_result = _run_case(
                                config, trace, policy, seed, model, action
                            )
                            _add_row(
                                result, algorithm, signaling, policy,
                                action, run_result,
                            )
                    else:
                        run_result = _run_case(
                            config, trace, policy, seed, None, None
                        )
                        _add_row(
                            result, algorithm, signaling, policy, "-",
                            run_result,
                        )
        result.notes.append(
            "model fitted on PARSEC-style deployment samples; collective "
            "traffic is out-of-distribution, so ml rows show drift (and, "
            "under retrain, promoted replacements); pam4 halves "
            "serialization at a 4.8 dB laser/receiver penalty"
        )
        return result

    return cached(("collective_study", quick, seed), compute)


def _drift_config(config: PearlConfig, action: str) -> PearlConfig:
    """Tight drift/retrain knobs for the ML rows (one event suffices)."""
    return config.replace(
        ml=dataclasses.replace(
            config.ml,
            drift_detection=True,
            drift_action=action,
            drift_calibration_windows=8,
            drift_patience=3,
            drift_z_threshold=4.0,
            retrain_min_samples=20,
            retrain_cooldown_windows=10_000,
        )
    )


def _run_case(
    config: PearlConfig,
    trace,
    policy: str,
    seed: int,
    model: Optional[RidgeRegression],
    drift_action: Optional[str],
):
    """One grid cell; retrain rows get an isolated throwaway registry."""
    if policy == "ml":
        config = _drift_config(config, drift_action)
        if drift_action == "retrain":
            from ..ml.lifecycle.registry import ModelRegistry

            with tempfile.TemporaryDirectory() as tmp:
                network = PearlNetwork(
                    config,
                    power_policy=PowerPolicyKind.ML,
                    ml_model=model,
                    seed=seed,
                    registry=ModelRegistry(tmp),
                )
                return network.run(trace)
        network = PearlNetwork(
            config, power_policy=PowerPolicyKind.ML, ml_model=model, seed=seed
        )
        return network.run(trace)
    network = PearlNetwork(
        config, power_policy=PowerPolicyKind(policy), seed=seed
    )
    return network.run(trace)


def _add_row(
    result: ExperimentResult,
    algorithm: str,
    signaling: str,
    policy: str,
    drift_action: str,
    run_result,
) -> None:
    result.add_row(
        algorithm=algorithm,
        signaling=signaling,
        policy=policy,
        drift_action=drift_action,
        throughput=run_result.stats.throughput_flits_per_cycle(),
        mean_latency=run_result.stats.mean_latency(),
        laser_power_w=run_result.mean_laser_power_w,
        energy_pj_per_bit=energy_per_bit_pj(run_result.stats),
        drift_events=run_result.drift_events,
        retrain_events=run_result.retrain_events,
    )
