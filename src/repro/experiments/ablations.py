"""Ablation studies for the design choices DESIGN.md calls out.

* DBA bandwidth step granularity (paper Sec. III-B: 25% beat 12.5% and
  6.25%).
* The beta upper bounds (paper: CPU 16%, GPU 6% found by brute force).
* Feature-set reduction for the ML model (paper: fewer features helped
  neither power nor throughput).
* The 8 WL low-power state on/off (paper Figs. 6/7).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..config import DBAConfig, PearlConfig
from ..ml.metrics import nrmse
from ..ml.pipeline import PowerModelTrainer, collect_datasets
from ..ml.ridge import select_lambda
from ..noc.router import PowerPolicyKind
from ..power.energy import energy_per_bit_pj
from . import power_scaling_suite
from .parallel import JobResult, JobSpec, pair_spec, pearl_job
from .runner import (
    Experiment,
    ExperimentResult,
    Results,
    experiment_pairs,
    no_jobs,
    simulation_config,
)

#: Feature subsets evaluated by the reduction ablation (column indices).
FEATURE_SUBSETS = {
    "all_30": list(range(30)),
    "occupancy_only": [0, 1, 2, 3, 4, 5, 29],
    "counts_only": list(range(6, 13)) + [29],
    "first_13": list(range(13)),
}

#: DBA bandwidth steps the granularity ablation compares.
STEPS = (0.25, 0.125, 0.0625)

#: (CPU, GPU) beta upper bounds swept around the paper's optimum.
BOUNDS = (
    (0.08, 0.03),
    (0.16, 0.06),  # the paper's brute-force optimum
    (0.32, 0.12),
    (0.16, 0.12),
    (0.32, 0.06),
)

#: (policy, label) rows of the adaptive-threshold extension.
THRESHOLD_POLICIES = (
    (PowerPolicyKind.STATIC, "64WL static"),
    (PowerPolicyKind.REACTIVE, "reactive (fixed thresholds)"),
    (PowerPolicyKind.ADAPTIVE, "adaptive (self-tuning)"),
)


def _dba_jobs(
    quick: bool, seed: int, dbas: Sequence[DBAConfig]
) -> List[JobSpec]:
    """Static 16 WL runs (where the split matters) per DBA config and pair."""
    return [
        pearl_job(
            PearlConfig(simulation=simulation_config(quick), dba=dba),
            pair_spec(pair, seed + i),
            seed=seed + i,
            static_state=16,
        )
        for dba in dbas
        for i, pair in enumerate(experiment_pairs(quick))
    ]


def _per_config(
    quick: bool, specs: List[JobSpec], results: Results
) -> List[List[JobResult]]:
    """The results of ``specs``, one list of per-pair runs per config."""
    n = len(experiment_pairs(quick))
    runs = [results[spec] for spec in specs]
    return [runs[start : start + n] for start in range(0, len(runs), n)]


def _granularity_jobs(quick: bool = True, seed: int = 1) -> List[JobSpec]:
    return _dba_jobs(
        quick, seed, [DBAConfig(bandwidth_step=step) for step in STEPS]
    )


def dba_granularity(
    quick: bool, seed: int, results: Results
) -> ExperimentResult:
    """Throughput/energy with 25% / 12.5% / 6.25% allocation steps."""
    result = ExperimentResult(name="ablation: DBA step granularity")
    chunks = _per_config(quick, _granularity_jobs(quick, seed), results)
    for step, chunk in zip(STEPS, chunks):
        result.add_row(
            step_pct=100.0 * step,
            throughput_flits_per_cycle=float(
                np.mean([job.throughput() for job in chunk])
            ),
            energy_per_bit_pj=float(
                np.mean([energy_per_bit_pj(job.stats) for job in chunk])
            ),
        )
    result.notes.append("paper: 25% steps performed best")
    return result


def _bounds_jobs(quick: bool = True, seed: int = 1) -> List[JobSpec]:
    return _dba_jobs(
        quick,
        seed,
        [
            DBAConfig(cpu_upper_bound=cpu_bound, gpu_upper_bound=gpu_bound)
            for cpu_bound, gpu_bound in BOUNDS
        ],
    )


def upper_bounds(quick: bool, seed: int, results: Results) -> ExperimentResult:
    """Sweep the beta upper bounds around the paper's optimum."""
    result = ExperimentResult(name="ablation: DBA upper bounds")
    chunks = _per_config(quick, _bounds_jobs(quick, seed), results)
    for (cpu_bound, gpu_bound), chunk in zip(BOUNDS, chunks):
        result.add_row(
            cpu_upper_pct=100.0 * cpu_bound,
            gpu_upper_pct=100.0 * gpu_bound,
            throughput_flits_per_cycle=float(
                np.mean([job.throughput() for job in chunk])
            ),
        )
    return result


def _datasets(quick: bool, seed: int):
    """The default pipeline's trainer with its training and validation
    ``(X, y)`` arrays, collected afresh (the fitting studies' data)."""
    trainer = PowerModelTrainer(seed=seed, quick=quick)
    train_set = collect_datasets(
        trainer.train_pairs, trainer.config, seed=seed
    )
    val_set = collect_datasets(
        trainer.val_pairs, trainer.config, seed=seed + 1000
    )
    return trainer, train_set.arrays(), val_set.arrays()


def feature_reduction(
    quick: bool, seed: int, results: Results
) -> ExperimentResult:
    """Validation NRMSE with reduced feature subsets (fits, no jobs)."""
    result = ExperimentResult(name="ablation: feature reduction")
    trainer, (X_train, y_train), (X_val, y_val) = _datasets(quick, seed)
    for label, columns in FEATURE_SUBSETS.items():
        model, lam = select_lambda(
            X_train[:, columns],
            y_train,
            X_val[:, columns],
            y_val,
            trainer.config.ml.lambda_grid,
        )
        score = nrmse(y_val, model.predict(X_val[:, columns]))
        result.add_row(
            features=label,
            num_features=len(columns),
            best_lambda=lam,
            validation_nrmse=score,
        )
    result.notes.append(
        "paper: reducing features improved neither power nor throughput"
    )
    return result


def low_state(quick: bool, seed: int, results: Results) -> ExperimentResult:
    """The 8 WL state's contribution (ML RW500 with vs without)."""
    suite = power_scaling_suite.outcomes(quick, seed, results)
    baseline = suite["64WL"]
    result = ExperimentResult(name="ablation: 8WL low-power state")
    for label in ("ML RW500", "ML RW500 no8WL"):
        outcome = suite[label]
        result.add_row(
            config=label,
            power_savings_pct=100.0 * outcome.power_savings_vs(baseline),
            throughput_loss_pct=100.0 * outcome.throughput_loss_vs(baseline),
        )
    result.notes.append("paper: 8WL lifts savings from 60.7% to 65.5%")
    return result


def _adaptive_jobs(quick: bool = True, seed: int = 1) -> List[JobSpec]:
    config = PearlConfig(
        simulation=simulation_config(quick)
    ).with_reservation_window(500)
    return [
        pearl_job(
            config,
            pair_spec(pair, seed + i),
            seed=seed + i,
            power_policy=policy,
        )
        for policy, _ in THRESHOLD_POLICIES
        for i, pair in enumerate(experiment_pairs(quick))
    ]


def adaptive_thresholds(
    quick: bool, seed: int, results: Results
) -> ExperimentResult:
    """Extension: fixed vs self-tuning reactive thresholds.

    Compares the paper's fixed-threshold reactive scaler against the
    adaptive variant that retunes thresholds to an occupancy band.
    """
    result = ExperimentResult(name="extension: adaptive thresholds")
    chunks = _per_config(quick, _adaptive_jobs(quick, seed), results)
    for (_, label), chunk in zip(THRESHOLD_POLICIES, chunks):
        result.add_row(
            policy=label,
            throughput_flits_per_cycle=float(
                np.mean([job.throughput() for job in chunk])
            ),
            laser_power_w=float(
                np.mean([job.mean_laser_power_w for job in chunk])
            ),
        )
    return result


def predictor_comparison(
    quick: bool, seed: int, results: Results
) -> ExperimentResult:
    """Future-work extension: ridge vs cheaper/richer predictors.

    Compares the paper's closed-form ridge against a last-value
    baseline, an EWMA, a degree-2 polynomial ridge and an SGD-trained
    ridge on identical collected datasets (validation NRMSE; fits, no
    jobs).
    """
    from ..ml.extensions import (
        EwmaPredictor,
        LastValuePredictor,
        PolynomialRidge,
        SgdRidge,
    )
    from ..ml.ridge import RidgeRegression

    result = ExperimentResult(name="extension: predictor comparison")
    _, (X_train, y_train), (X_val, y_val) = _datasets(quick, seed)
    predictors = {
        "last_value": LastValuePredictor(),
        "ewma": EwmaPredictor(alpha=0.5),
        "ridge (paper)": RidgeRegression(lam=100.0),
        "polynomial_ridge": PolynomialRidge(lam=100.0),
        "sgd_ridge": SgdRidge(lam=100.0, epochs=30),
    }
    for label, model in predictors.items():
        model.fit(X_train, y_train)
        score = nrmse(y_val, model.predict(X_val))
        result.add_row(predictor=label, validation_nrmse=score)
    result.notes.append(
        "extension of the paper's future-work direction: improving "
        "prediction accuracy"
    )
    return result


DBA_GRANULARITY = Experiment(_granularity_jobs, dba_granularity)
UPPER_BOUNDS = Experiment(_bounds_jobs, upper_bounds)
FEATURE_REDUCTION = Experiment(no_jobs, feature_reduction)
LOW_STATE = Experiment(power_scaling_suite.jobs, low_state)
ADAPTIVE_THRESHOLDS = Experiment(_adaptive_jobs, adaptive_thresholds)
PREDICTOR_COMPARISON = Experiment(no_jobs, predictor_comparison)

#: The studies the ``ablations`` table concatenates, in row order.
PARTS = (DBA_GRANULARITY, UPPER_BOUNDS, LOW_STATE)


def jobs(quick: bool = True, seed: int = 1) -> List[JobSpec]:
    """Every part's jobs, in part order."""
    return [spec for part in PARTS for spec in part.jobs(quick, seed)]


def table(quick: bool, seed: int, results: Results) -> ExperimentResult:
    """All ablations concatenated (for the generic harness)."""
    combined = ExperimentResult(name="ablations")
    for part in PARTS:
        part_table = part.table(quick, seed, results)
        for row in part_table.rows:
            combined.add_row(study=part_table.name, **row)
    return combined
