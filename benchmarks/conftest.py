"""Benchmark-harness helpers.

Each benchmark regenerates one paper table/figure through
:func:`repro.experiments.run_experiment`.  Experiment sweeps are
expensive (they run the cycle simulator many times), so they execute
exactly once via ``benchmark.pedantic(rounds=1)``; the printed tables
are the reproduced artifacts.  The session runs under one engine backed
by the default result cache and model registry, so the experiments that
share jobs (the power-scaling suite under fig6-8, ml_quality, ablations
and headline; fig5 and fig9 under headline) read them from the cache
once the first of them has run them.

Set ``PEARL_BENCH_FULL=1`` to sweep all 16 test pairs at full run
lengths instead of the quick diagonal.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import engine_scope, run_experiment

#: Full evaluation (16 pairs, 20k cycles) when set.
FULL = os.environ.get("PEARL_BENCH_FULL", "") == "1"


@pytest.fixture(scope="session")
def quick() -> bool:
    """Quick-mode flag shared by every figure benchmark."""
    return not FULL


@pytest.fixture(scope="session", autouse=True)
def _result_cache():
    """One cached engine on the default store for the whole session."""
    with engine_scope(use_cache=True):
        yield


def run_once(benchmark, experiment, quick=True, seed=1):
    """Run one experiment (a registry id or an ablation part) exactly
    once under the benchmark timer."""
    return benchmark.pedantic(
        run_experiment,
        args=(experiment, quick, seed),
        rounds=1,
        iterations=1,
    )
