"""Collective workloads under NRZ vs PAM4 across adaptation policies.

Every collective schedule × {reactive, ml, proteus, d3noc} × {nrz,
pam4}, with the ML rows run both purely observed
(``drift_action="flag"``) and with the closed online retraining loop
(``drift_action="retrain"``).  The deployed model is fitted on
PARSEC-style deployment samples (see
:func:`repro.ml.pipeline.deployment_fitted_model`), so collective
traffic is genuinely out of its training distribution — the drift
columns show the monitor firing and, under ``retrain``, the refit
replacement models (registered, no tag moved).  The deployed model
lives in the default model registry under its training key, so a rerun
fits nothing.  The grid runs as pearl jobs through
:func:`~repro.experiments.parallel.run_jobs`.

PAM4 halves serialization latency per wavelength state but pays the
BER-driven laser/receiver penalty; the ``energy_pj_per_bit`` column
makes that cross-layer trade visible per policy, and PROTEUS rows show
the tightened per-router loss caps (the penalty raises the required
laser output like extra waveguide loss).
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from ..config import PearlConfig, SimulationConfig
from ..ml.lifecycle import default_registry
from ..ml.lifecycle.registry import schema_hash
from ..ml.pipeline import deployment_fitted_model
from ..noc.router import PowerPolicyKind
from ..power.energy import energy_per_bit_pj
from ..traffic.benchmarks import test_pairs
from ..traffic.collectives import COLLECTIVE_ALGORITHMS
from .parallel import JobResult, JobSpec, collective_spec, pearl_job, run_jobs
from .runner import FULL_CYCLES, QUICK_CYCLES, ExperimentResult, cached

#: Quick mode exercises one bandwidth-optimal schedule; full sweeps all.
QUICK_ALGORITHMS = ("allreduce_ring",)

#: Adaptation policies crossed against the signaling formats.
POLICY_GRID = ("reactive", "ml", "proteus", "d3noc")

#: Reservation window short enough that phase boundaries land inside
#: distinct windows (collective steps are tens of cycles long).
WINDOW = 200

#: Tight drift/retrain knobs of the ML rows (one event suffices); the
#: drift action is per row.
DRIFT_KNOBS = dict(
    drift_detection=True,
    drift_calibration_windows=8,
    drift_patience=3,
    drift_z_threshold=4.0,
    retrain_min_samples=20,
    retrain_cooldown_windows=10_000,
)


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
        cells = [
            (algorithm, signaling, policy, action)
            for algorithm in algorithms
            for signaling in ("nrz", "pam4")
            for policy in POLICY_GRID
            for action in (("flag", "retrain") if policy == "ml" else ("-",))
        ]
        model_path = deployment_model_path(seed)
        results = run_jobs(
            [_job(base, cell, seed, model_path) for cell in cells]
        )
        for cell, job in zip(cells, results):
            _add_row(result, *cell, job)
        result.notes.append(
            "model fitted on PARSEC-style deployment samples; collective "
            "traffic is out-of-distribution, so ml rows show drift (and, "
            "under retrain, refit replacements, registered with no tag "
            "moved); pam4 halves serialization at a 4.8 dB "
            "laser/receiver penalty"
        )
        return result

    return cached(("collective_study", quick, seed), compute)


def deployment_model_path(seed: int) -> Path:
    """The deployment model's file in the default registry.

    The model is :func:`~repro.ml.pipeline.deployment_fitted_model` on
    the first Table IV test pair at window :data:`WINDOW`, looked up by
    that training key and the feature schema's hash; it is fitted and
    registered (no tag moved) only when no record matches.  The ML
    jobs load it from here, and the result cache keys them by the
    file's bytes.
    """
    cpu, gpu = test_pairs()[0]
    key = {
        "pipeline": "collective_study_deployment",
        "pair": [cpu.name, gpu.name],
        "seed": int(seed),
        "window": WINDOW,
    }
    registry = default_registry()
    record = registry.find_by_key(key, with_schema_hash=schema_hash())
    if record is None:
        model = deployment_fitted_model(
            pair=(cpu, gpu),
            config=PearlConfig().with_reservation_window(WINDOW),
            seed=seed,
        )
        record = registry.put(
            model,
            training={"key": key},
            provenance={"experiment": "collective_study"},
        )
    return registry.model_path(record.model_id)


def _job(base: PearlConfig, cell, seed: int, model_path: Path) -> JobSpec:
    """The pearl job of one ``(algorithm, signaling, policy, action)`` cell."""
    algorithm, signaling, policy, action = cell
    config = base.replace(
        photonic=dataclasses.replace(base.photonic, signaling=signaling)
    )
    ml = policy == "ml"
    return pearl_job(
        _drift_config(config, action) if ml else config,
        collective_spec(algorithm, seed),
        seed=seed,
        power_policy=PowerPolicyKind(policy),
        ml_model_path=model_path if ml else None,
    )


def _drift_config(config: PearlConfig, action: str) -> PearlConfig:
    """``config`` with :data:`DRIFT_KNOBS` and drift action ``action``."""
    return config.replace(
        ml=dataclasses.replace(config.ml, drift_action=action, **DRIFT_KNOBS)
    )


def _add_row(
    result: ExperimentResult,
    algorithm: str,
    signaling: str,
    policy: str,
    drift_action: str,
    job: JobResult,
) -> None:
    result.add_row(
        algorithm=algorithm,
        signaling=signaling,
        policy=policy,
        drift_action=drift_action,
        throughput=job.stats.throughput_flits_per_cycle(),
        mean_latency=job.stats.mean_latency(),
        laser_power_w=job.mean_laser_power_w,
        energy_pj_per_bit=energy_per_bit_pj(job.stats),
        drift_events=job.drift_events,
        retrain_events=job.retrain_events,
    )
