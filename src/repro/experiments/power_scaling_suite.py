"""The shared power-scaling sweep behind Figs. 6, 7 and 8.

Runs the six configurations of the paper's power-scaling evaluation —
the 64 WL PEARL-Dyn baseline, reactive scaling at RW 500/2000, and ML
scaling at RW 500 (with and without the 8 WL state) and RW 2000 — over
the test benchmark pairs, aggregating throughput, mean laser power,
wavelength-state residency and prediction quality.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from ..config import PearlConfig
from ..ml.metrics import nrmse
from ..ml.pipeline import ensure_model_file
from ..noc.router import PowerPolicyKind
from .parallel import JobResult, pair_spec, pearl_job, run_jobs
from .runner import (
    Pair,
    cached,
    describe_pair,
    experiment_pairs,
    simulation_config,
)


@dataclass
class ConfigOutcome:
    """Aggregated metrics of one configuration over all pairs."""

    label: str
    throughput: float = 0.0
    laser_power_w: float = 0.0
    residency: Dict[int, float] = field(default_factory=dict)
    per_pair_throughput: Dict[str, float] = field(default_factory=dict)
    per_pair_power: Dict[str, float] = field(default_factory=dict)
    test_nrmse: Optional[float] = None
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


def _suite_jobs(label: str, pairs: List[Pair], quick: bool, seed: int):
    """The per-pair job specs of one suite configuration."""
    base = PearlConfig(simulation=simulation_config(quick))
    window, policy, reintroduce_8wl = parse_suite_label(label)
    config = base.with_reservation_window(window)
    if reintroduce_8wl is not None:
        config = config.replace(
            ml=replace(config.ml, reintroduce_8wl=reintroduce_8wl)
        )
    model_path = None
    if policy is PowerPolicyKind.ML:
        model_path = ensure_model_file(window, quick=quick)
    return [
        pearl_job(
            config,
            pair_spec(pair, seed + i),
            seed=seed + i,
            power_policy=policy,
            ml_model_path=model_path,
        )
        for i, pair in enumerate(pairs)
    ]


def _aggregate_config(
    label: str, pairs: List[Pair], results: List[JobResult]
) -> ConfigOutcome:
    """Fold one configuration's per-pair job results into an outcome."""
    outcome = ConfigOutcome(label=label)
    residency_acc: Dict[int, float] = {}
    labels_all: List[float] = []
    preds_all: List[float] = []
    throughputs: List[float] = []
    powers: List[float] = []
    for pair, result in zip(pairs, results):
        name = describe_pair(pair)
        throughput = result.throughput()
        power = result.mean_laser_power_w
        outcome.per_pair_throughput[name] = throughput
        outcome.per_pair_power[name] = power
        throughputs.append(throughput)
        powers.append(power)
        for state, fraction in result.state_residency.items():
            residency_acc[state] = residency_acc.get(state, 0.0) + fraction
        labels_all.extend(result.ml_labels)
        preds_all.extend(result.ml_predictions)

    outcome.throughput = float(np.mean(throughputs))
    outcome.laser_power_w = float(np.mean(powers))
    outcome.residency = {
        state: total / len(pairs) for state, total in residency_acc.items()
    }
    if labels_all:
        outcome.test_nrmse = nrmse(
            np.asarray(labels_all), np.asarray(preds_all)
        )
        outcome.history_targets = labels_all
        outcome.history_predictions = preds_all
    return outcome


def run_suite(quick: bool = True, seed: int = 1) -> Dict[str, ConfigOutcome]:
    """Run (or fetch the memoised) full power-scaling sweep.

    All 6 configurations x N pairs go to the engine as one submission,
    so a parallel run overlaps across configurations, not just pairs.
    """

    def compute() -> Dict[str, ConfigOutcome]:
        pairs = experiment_pairs(quick)
        specs = []
        for label in SUITE_LABELS:
            specs.extend(_suite_jobs(label, pairs, quick, seed))
        results = run_jobs(specs)
        outcomes: Dict[str, ConfigOutcome] = {}
        for index, label in enumerate(SUITE_LABELS):
            chunk = results[index * len(pairs) : (index + 1) * len(pairs)]
            outcomes[label] = _aggregate_config(label, pairs, chunk)
        return outcomes

    return cached(("power_scaling_suite", quick, seed), compute)
