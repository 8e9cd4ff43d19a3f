"""Experiment harness: one module per paper figure/table.

Every module exposes ``run(quick=True, seed=1) -> ExperimentResult``;
``REGISTRY`` maps experiment ids to those callables, and ``run_all``
regenerates the whole evaluation (used to produce EXPERIMENTS.md).
The registry is built on first use, so importing the job engine
(:mod:`repro.experiments.parallel`) loads no experiment module.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List

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
from .runner import ExperimentResult, clear_cache

#: Experiment id -> (module, entry point), in registry order.  The
#: table dumps take no run arguments.
_ENTRIES = {
    "table1": ("tables", "table1"),
    "table2": ("tables", "table2"),
    "table5": ("tables", "table5"),
    "fig4": ("fig4_breakdown", "run"),
    "fig5": ("fig5_energy", "run"),
    "fig6": ("fig6_throughput", "run"),
    "fig7": ("fig7_laser_power", "run"),
    "fig8": ("fig8_states", "run"),
    "fig9": ("fig9_comparison", "run"),
    "fig10": ("fig10_window_sweep", "run"),
    "fig11": ("fig11_turn_on", "run"),
    "ml_quality": ("ml_quality", "run"),
    "ml_lifecycle": ("ml_lifecycle", "run"),
    "ablations": ("ablations", "run"),
    "saturation": ("saturation", "run"),
    "resilience": ("resilience", "run"),
    "policy_bakeoff": ("policy_bakeoff", "run"),
    "arbitration": ("arbitration", "run"),
    "collective_study": ("collective_study", "run"),
    "thermal_study": ("thermal_study", "run"),
    "headline": ("headline", "run"),
}


def _entry(module: str, name: str) -> Callable[..., ExperimentResult]:
    func = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    if name == "run":
        return func
    return lambda quick=True, seed=1: func()


def _registry() -> Dict[str, Callable[..., ExperimentResult]]:
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


def run_all(quick: bool = True, seed: int = 1) -> List[ExperimentResult]:
    """Run every registered experiment in registry order."""
    return [run(quick=quick, seed=seed) for run in _registry().values()]


__all__ = [
    "REGISTRY",
    "ExperimentEngine",
    "ExperimentResult",
    "JobResult",
    "JobSpec",
    "ResultCache",
    "TraceSpec",
    "clear_cache",
    "configure",
    "current_engine",
    "engine_scope",
    "execute_job",
    "run_all",
    "run_jobs",
]
