"""Shared fixtures and test-matrix enforcement.

Fixtures are tiny configurations that keep the suite fast.  The
collection hook below enforces the marker contract of the test matrix
(see ``pyproject.toml`` and ``docs/ml_lifecycle.md#test-matrix``):

* tests that consume an expensive training fixture must be marked
  ``slow`` so the fast lane (``-m "not slow"``) actually is fast;
* tests under ``tests/golden/`` must be marked ``golden``;
* property-based tests get the ``hypothesis`` marker automatically.

Violations fail collection outright rather than silently bloating the
fast lane.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.config import (
    PearlConfig,
    PowerScalingConfig,
    SimulationConfig,
)
from repro.ml.pipeline import PowerModelTrainer
from repro.traffic.benchmarks import CPU_BENCHMARKS, GPU_BENCHMARKS
from repro.traffic.synthetic import generate_pair_trace

#: Fixtures whose construction runs a real training pipeline; any test
#: requesting one must be marked ``slow``.
SLOW_FIXTURES = frozenset({"tiny_trained_model", "tiny_trainer"})


def pytest_collection_modifyitems(config, items):
    del config  # unused; hook signature is fixed
    violations = []
    for item in items:
        obj = getattr(item, "obj", None)
        if obj is not None and hasattr(obj, "hypothesis"):
            item.add_marker(pytest.mark.hypothesis)
        fixtures = set(getattr(item, "fixturenames", ()))
        slow_used = sorted(SLOW_FIXTURES & fixtures)
        if slow_used and item.get_closest_marker("slow") is None:
            violations.append(
                f"{item.nodeid} uses {', '.join(slow_used)} but is not "
                "marked @pytest.mark.slow"
            )
        path = Path(str(item.fspath))
        if "golden" in path.parts and item.get_closest_marker("golden") is None:
            violations.append(
                f"{item.nodeid} lives under tests/golden/ but is not "
                "marked @pytest.mark.golden"
            )
    if violations:
        raise pytest.UsageError(
            "test-matrix marker contract violated "
            "(see pyproject.toml markers):\n  " + "\n  ".join(violations)
        )


@pytest.fixture
def tiny_config() -> PearlConfig:
    """A PEARL config sized for sub-second simulation runs."""
    return PearlConfig(
        simulation=SimulationConfig(warmup_cycles=100, measure_cycles=1_500),
        power_scaling=PowerScalingConfig(reservation_window=200),
    )


@pytest.fixture
def tiny_trace(tiny_config):
    """A short FA+DCT trace matched to ``tiny_config``."""
    return generate_pair_trace(
        CPU_BENCHMARKS["fluidanimate"],
        GPU_BENCHMARKS["dct"],
        tiny_config.architecture,
        tiny_config.simulation.total_cycles,
        seed=7,
    )


@pytest.fixture(scope="session")
def tiny_trained_model():
    """A ridge model trained through the real two-phase pipeline.

    Session-scoped because collection runs the simulator; two training
    pairs and one validation pair at short cycle counts keep it to a
    few seconds while exercising every pipeline stage.
    """
    config = PearlConfig(
        simulation=SimulationConfig(warmup_cycles=100, measure_cycles=2_000),
        power_scaling=PowerScalingConfig(reservation_window=200),
    )
    train = [
        (CPU_BENCHMARKS["blackscholes"], GPU_BENCHMARKS["binary_search"]),
        (CPU_BENCHMARKS["canneal"], GPU_BENCHMARKS["matrix_mult"]),
    ]
    val = [(CPU_BENCHMARKS["raytrace"], GPU_BENCHMARKS["prefix_sum"])]
    trainer = PowerModelTrainer(
        config=config, train_pairs=train, val_pairs=val, seed=11
    )
    return trainer.train()
