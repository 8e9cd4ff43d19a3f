"""Experiment harness: one module per paper figure/table.

Every module exposes ``jobs(quick, seed)``, the job specs it needs, and
``table(quick, seed, results)``, which folds their results into an
:class:`ExperimentResult` (see :mod:`.runner`).  ``REGISTRY`` maps
experiment ids to those experiments; :func:`run_experiment` runs one
and :func:`run_all` the whole evaluation, each as one deduplicated
batch of jobs (``run_all`` regenerates EXPERIMENTS.md).  The registry
is built on first use, so importing the job engine
(:mod:`repro.experiments.parallel`) loads no experiment module.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Optional, Union

from .cache import ResultCache
from .parallel import (
    ExperimentEngine,
    JobResult,
    JobSpec,
    TraceSpec,
    configure,
    current_engine,
    engine_scope,
    execute_job,
    run_jobs,
)
from .runner import Experiment, ExperimentResult, fold

#: Experiment id -> (module, attribute), in registry order.  The
#: attribute names an :class:`Experiment` of the module; ``None``
#: means the module itself.
_ENTRIES = {
    "table1": ("tables", "TABLE1"),
    "table2": ("tables", "TABLE2"),
    "table5": ("tables", "TABLE5"),
    "fig4": ("fig4_breakdown", None),
    "fig5": ("fig5_energy", None),
    "fig6": ("fig6_throughput", None),
    "fig7": ("fig7_laser_power", None),
    "fig8": ("fig8_states", None),
    "fig9": ("fig9_comparison", None),
    "fig10": ("fig10_window_sweep", None),
    "fig11": ("fig11_turn_on", None),
    "ml_quality": ("ml_quality", None),
    "ml_lifecycle": ("ml_lifecycle", None),
    "ablations": ("ablations", None),
    "saturation": ("saturation", None),
    "resilience": ("resilience", None),
    "policy_bakeoff": ("policy_bakeoff", None),
    "arbitration": ("arbitration", None),
    "collective_study": ("collective_study", None),
    "thermal_study": ("thermal_study", None),
    "headline": ("headline", None),
}


def _entry(module: str, name: Optional[str]) -> Experiment:
    loaded = importlib.import_module(f"{__name__}.{module}")
    return loaded if name is None else getattr(loaded, name)


def _registry() -> Dict[str, Experiment]:
    """``REGISTRY``, importing every experiment module the first time."""
    if "REGISTRY" not in globals():
        globals()["REGISTRY"] = {
            exp_id: _entry(*entry) for exp_id, entry in _ENTRIES.items()
        }
    return globals()["REGISTRY"]


def __getattr__(name: str):
    if name == "REGISTRY":
        return _registry()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run_experiment(
    experiment: Union[str, Experiment], quick: bool = True, seed: int = 1
) -> ExperimentResult:
    """One experiment's table: a registry id, or any object with
    ``jobs`` and ``table`` (an ablation part, say)."""
    if isinstance(experiment, str):
        experiment = _registry()[experiment]
    return fold([experiment], quick=quick, seed=seed)[0]


def run_all(quick: bool = True, seed: int = 1) -> List[ExperimentResult]:
    """Every registered experiment's table, in registry order, from one
    batch of the distinct jobs they declare."""
    return fold(list(_registry().values()), quick=quick, seed=seed)


__all__ = [
    "REGISTRY",
    "Experiment",
    "ExperimentEngine",
    "ExperimentResult",
    "JobResult",
    "JobSpec",
    "ResultCache",
    "TraceSpec",
    "configure",
    "current_engine",
    "engine_scope",
    "execute_job",
    "run_all",
    "run_experiment",
    "run_jobs",
]
