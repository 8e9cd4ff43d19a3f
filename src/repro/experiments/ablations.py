"""Ablation studies for the design choices DESIGN.md calls out.

* DBA bandwidth step granularity (paper Sec. III-B: 25% beat 12.5% and
  6.25%).
* The beta upper bounds (paper: CPU 16%, GPU 6% found by brute force).
* Feature-set reduction for the ML model (paper: fewer features helped
  neither power nor throughput).
* The 8 WL low-power state on/off (paper Figs. 6/7).
"""

from __future__ import annotations

import numpy as np

from ..config import DBAConfig, PearlConfig
from ..ml.metrics import nrmse
from ..ml.pipeline import PowerModelTrainer, collect_datasets
from ..ml.ridge import select_lambda
from ..power.energy import energy_per_bit_pj
from .parallel import pair_spec, pearl_job, run_jobs
from .power_scaling_suite import run_suite
from .runner import (
    ExperimentResult,
    cached,
    experiment_pairs,
    simulation_config,
)

#: Feature subsets evaluated by the reduction ablation (column indices).
FEATURE_SUBSETS = {
    "all_30": list(range(30)),
    "occupancy_only": [0, 1, 2, 3, 4, 5, 29],
    "counts_only": list(range(6, 13)) + [29],
    "first_13": list(range(13)),
}


def dba_granularity(quick: bool = True, seed: int = 1) -> ExperimentResult:
    """Throughput/energy with 25% / 12.5% / 6.25% allocation steps.

    Evaluated at the constrained 16 WL state where the split matters.
    """

    def compute() -> ExperimentResult:
        result = ExperimentResult(name="ablation: DBA step granularity")
        pairs = experiment_pairs(quick)
        steps = (0.25, 0.125, 0.0625)
        specs = [
            pearl_job(
                PearlConfig(
                    simulation=simulation_config(quick),
                    dba=DBAConfig(bandwidth_step=step),
                ),
                pair_spec(pair, seed + i),
                seed=seed + i,
                static_state=16,
            )
            for step in steps
            for i, pair in enumerate(pairs)
        ]
        jobs = run_jobs(specs)
        for index, step in enumerate(steps):
            chunk = jobs[index * len(pairs) : (index + 1) * len(pairs)]
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

    return cached(("ablation_granularity", quick, seed), compute)


def upper_bounds(quick: bool = True, seed: int = 1) -> ExperimentResult:
    """Sweep the beta upper bounds around the paper's optimum."""

    def compute() -> ExperimentResult:
        result = ExperimentResult(name="ablation: DBA upper bounds")
        pairs = experiment_pairs(quick)
        bounds = (
            (0.08, 0.03),
            (0.16, 0.06),  # the paper's brute-force optimum
            (0.32, 0.12),
            (0.16, 0.12),
            (0.32, 0.06),
        )
        specs = [
            pearl_job(
                PearlConfig(
                    simulation=simulation_config(quick),
                    dba=DBAConfig(
                        cpu_upper_bound=cpu_bound, gpu_upper_bound=gpu_bound
                    ),
                ),
                pair_spec(pair, seed + i),
                seed=seed + i,
                static_state=16,
            )
            for cpu_bound, gpu_bound in bounds
            for i, pair in enumerate(pairs)
        ]
        jobs = run_jobs(specs)
        for index, (cpu_bound, gpu_bound) in enumerate(bounds):
            chunk = jobs[index * len(pairs) : (index + 1) * len(pairs)]
            result.add_row(
                cpu_upper_pct=100.0 * cpu_bound,
                gpu_upper_pct=100.0 * gpu_bound,
                throughput_flits_per_cycle=float(
                    np.mean([job.throughput() for job in chunk])
                ),
            )
        return result

    return cached(("ablation_bounds", quick, seed), compute)


def feature_reduction(quick: bool = True, seed: int = 2018) -> ExperimentResult:
    """Validation NRMSE with reduced feature subsets."""

    def compute() -> ExperimentResult:
        result = ExperimentResult(name="ablation: feature reduction")
        trainer = PowerModelTrainer(seed=seed, quick=quick)
        train_set = collect_datasets(
            trainer.train_pairs, trainer.config, seed=seed
        )
        val_set = collect_datasets(
            trainer.val_pairs, trainer.config, seed=seed + 1000
        )
        X_train, y_train = train_set.arrays()
        X_val, y_val = val_set.arrays()
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

    return cached(("ablation_features", quick, seed), compute)


def low_state(quick: bool = True, seed: int = 1) -> ExperimentResult:
    """The 8 WL state's contribution (ML RW500 with vs without)."""
    suite = run_suite(quick, seed)
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


def adaptive_thresholds(quick: bool = True, seed: int = 1) -> ExperimentResult:
    """Extension: fixed vs self-tuning reactive thresholds.

    Compares the paper's fixed-threshold reactive scaler against the
    adaptive variant that retunes thresholds to an occupancy band.
    """

    def compute() -> ExperimentResult:
        from ..noc.router import PowerPolicyKind

        result = ExperimentResult(name="extension: adaptive thresholds")
        pairs = experiment_pairs(quick)
        config = PearlConfig(
            simulation=simulation_config(quick)
        ).with_reservation_window(500)
        policies = (
            (PowerPolicyKind.STATIC, "64WL static"),
            (PowerPolicyKind.REACTIVE, "reactive (fixed thresholds)"),
            (PowerPolicyKind.ADAPTIVE, "adaptive (self-tuning)"),
        )
        specs = [
            pearl_job(
                config,
                pair_spec(pair, seed + i),
                seed=seed + i,
                power_policy=policy,
            )
            for policy, _ in policies
            for i, pair in enumerate(pairs)
        ]
        jobs = run_jobs(specs)
        for index, (_, label) in enumerate(policies):
            chunk = jobs[index * len(pairs) : (index + 1) * len(pairs)]
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

    return cached(("ablation_adaptive", quick, seed), compute)


def predictor_comparison(quick: bool = True, seed: int = 2018) -> ExperimentResult:
    """Future-work extension: ridge vs cheaper/richer predictors.

    Compares the paper's closed-form ridge against a last-value
    baseline, an EWMA, a degree-2 polynomial ridge and an SGD-trained
    ridge on identical collected datasets (validation NRMSE).
    """

    def compute() -> ExperimentResult:
        from ..ml.extensions import (
            EwmaPredictor,
            LastValuePredictor,
            PolynomialRidge,
            SgdRidge,
        )
        from ..ml.ridge import RidgeRegression

        result = ExperimentResult(name="extension: predictor comparison")
        trainer = PowerModelTrainer(seed=seed, quick=quick)
        train_set = collect_datasets(
            trainer.train_pairs, trainer.config, seed=seed
        )
        val_set = collect_datasets(
            trainer.val_pairs, trainer.config, seed=seed + 1000
        )
        X_train, y_train = train_set.arrays()
        X_val, y_val = val_set.arrays()
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

    return cached(("ablation_predictors", quick, seed), compute)


def run(quick: bool = True, seed: int = 1) -> ExperimentResult:
    """All ablations concatenated (for the generic harness)."""
    combined = ExperimentResult(name="ablations")
    for part in (
        dba_granularity(quick, seed),
        upper_bounds(quick, seed),
        low_state(quick, seed),
    ):
        for row in part.rows:
            combined.add_row(study=part.name, **row)
    return combined
