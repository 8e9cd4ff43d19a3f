"""The shared power-scaling sweep behind Figs. 6, 7 and 8.

The six configurations of the paper's power-scaling evaluation — the
64 WL PEARL-Dyn baseline, reactive scaling at RW 500/2000, and ML
scaling at RW 500 (with and without the 8 WL state) and RW 2000 — over
the test benchmark pairs: :func:`jobs` declares the runs and
:func:`outcomes` aggregates throughput, mean laser power,
wavelength-state residency and prediction quality.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List

import numpy as np

from ..config import PearlConfig
from ..ml.pipeline import ensure_model_file
from ..noc.router import PowerPolicyKind
from .parallel import JobResult, JobSpec, pair_spec, pearl_job
from .runner import Results, experiment_pairs, simulation_config


@dataclass
class ConfigOutcome:
    """Aggregated metrics of one configuration over all pairs."""

    label: str
    throughput: float = 0.0
    laser_power_w: float = 0.0
    residency: Dict[int, float] = field(default_factory=dict)
    history_targets: List[float] = field(default_factory=list)
    history_predictions: List[float] = field(default_factory=list)

    def throughput_loss_vs(self, baseline: "ConfigOutcome") -> float:
        """Fractional throughput loss against a baseline outcome."""
        if baseline.throughput <= 0:
            return 0.0
        return 1.0 - self.throughput / baseline.throughput

    def power_savings_vs(self, baseline: "ConfigOutcome") -> float:
        """Fractional laser-power savings against a baseline outcome."""
        if baseline.laser_power_w <= 0:
            return 0.0
        return 1.0 - self.laser_power_w / baseline.laser_power_w


#: Configuration labels in the paper's Figs. 6/7 order.
SUITE_LABELS = (
    "64WL",
    "Dyn RW500",
    "Dyn RW2000",
    "ML RW500",
    "ML RW500 no8WL",
    "ML RW2000",
)


def parse_suite_label(label: str):
    """Decode a suite label into (window, policy, reintroduce_8wl).

    ``"64WL"`` is the static baseline; ``"Dyn RWn"`` is reactive
    scaling; ``"ML RWn"`` (optionally suffixed ``no8WL``) is ML scaling.
    The 8-WL switch is ``None`` where the label leaves the config as is.
    """
    if label == "64WL":
        return 500, PowerPolicyKind.STATIC, None
    if label.startswith("Dyn RW"):
        return int(label.split("RW")[1]), PowerPolicyKind.REACTIVE, None
    if label.startswith("ML RW"):
        window = int(label.split("RW")[1].split()[0])
        return window, PowerPolicyKind.ML, "no8WL" not in label
    raise ValueError(f"unknown suite label {label!r}")


def _aggregate_config(label: str, runs: List[JobResult]) -> ConfigOutcome:
    """Fold one configuration's per-pair job results into an outcome."""
    residency: Dict[int, float] = {}
    targets: List[float] = []
    predictions: List[float] = []
    for run in runs:
        for state, fraction in run.state_residency.items():
            residency[state] = residency.get(state, 0.0) + fraction
        targets.extend(run.ml_labels)
        predictions.extend(run.ml_predictions)
    return ConfigOutcome(
        label=label,
        throughput=float(np.mean([run.throughput() for run in runs])),
        laser_power_w=float(np.mean([run.mean_laser_power_w for run in runs])),
        residency={
            state: total / len(runs) for state, total in residency.items()
        },
        history_targets=targets,
        history_predictions=predictions,
    )


def jobs(quick: bool = True, seed: int = 1) -> List[JobSpec]:
    """All 6 configurations x N pairs of the sweep, in label order.

    Figs. 6-8, ml_quality, the 8 WL ablation and the headline claims
    all declare these specs, so a batch that folds several of them
    runs the sweep once and overlaps across configurations, not just
    pairs.
    """
    base = PearlConfig(simulation=simulation_config(quick))
    specs = []
    for label in SUITE_LABELS:
        window, policy, reintroduce_8wl = parse_suite_label(label)
        config = base.with_reservation_window(window)
        if reintroduce_8wl is not None:
            config = config.replace(
                ml=replace(config.ml, reintroduce_8wl=reintroduce_8wl)
            )
        model_path = None
        if policy is PowerPolicyKind.ML:
            model_path = ensure_model_file(window, quick=quick)
        specs.extend(
            pearl_job(
                config,
                pair_spec(pair, seed + i),
                seed=seed + i,
                power_policy=policy,
                ml_model_path=model_path,
            )
            for i, pair in enumerate(experiment_pairs(quick))
        )
    return specs


def outcomes(
    quick: bool, seed: int, results: Results
) -> Dict[str, ConfigOutcome]:
    """The sweep's per-configuration outcomes, from its job results."""
    n = len(experiment_pairs(quick))
    runs = [results[spec] for spec in jobs(quick, seed)]
    return {
        label: _aggregate_config(label, runs[index * n : (index + 1) * n])
        for index, label in enumerate(SUITE_LABELS)
    }
