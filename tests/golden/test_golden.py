"""Differential golden-run tests: every policy × allocator × engine.

A failure here means the simulated behaviour changed.  If the change
is intentional, regenerate the snapshots with
``python scripts/update_golden.py`` and commit the diff alongside the
code; if not, it just caught a regression.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from .golden_cases import (
    ALLOCATORS,
    CMESH_DIVISORS,
    COLLECTIVE_PAM4_CASE,
    COLLECTIVE_RETRAIN_CASE,
    ENGINES,
    MWSR_CASE,
    POLICIES,
    RETRAIN_CASE,
    cmesh_case,
    run_case,
    run_cmesh_case,
    run_collective_pam4_case,
    run_collective_retrain_case,
    run_mwsr_case,
    run_retrain_case,
)

pytestmark = pytest.mark.golden

SNAPSHOT_DIR = Path(__file__).parent / "snapshots"

CASES = [(policy, alloc) for policy in POLICIES for alloc in ALLOCATORS]


def _diff(expected: dict, actual: dict, prefix: str = "") -> list:
    """Human-readable list of leaf-level differences."""
    lines = []
    for key in sorted(set(expected) | set(actual)):
        path = f"{prefix}{key}"
        if key not in expected:
            lines.append(f"  {path}: unexpected key (= {actual[key]!r})")
        elif key not in actual:
            lines.append(f"  {path}: missing (expected {expected[key]!r})")
        elif isinstance(expected[key], dict) and isinstance(actual[key], dict):
            lines.extend(_diff(expected[key], actual[key], prefix=f"{path}."))
        elif expected[key] != actual[key]:
            lines.append(
                f"  {path}: expected {expected[key]!r}, got {actual[key]!r}"
            )
    return lines


def _check_snapshot(stem: str, actual: dict, where: str) -> None:
    """Fail with a leaf-level diff unless ``actual`` equals the snapshot."""
    path = SNAPSHOT_DIR / f"{stem}.json"
    assert path.exists(), (
        f"missing snapshot {path.name}; run scripts/update_golden.py"
    )
    expected = json.loads(path.read_text())
    if actual != expected:
        differences = "\n".join(_diff(expected, actual))
        pytest.fail(
            f"golden mismatch for {stem} {where}:\n{differences}\n"
            "If this change is intentional, regenerate with "
            "scripts/update_golden.py."
        )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "policy,allocator", CASES, ids=[f"{p}-{a}" for p, a in CASES]
)
def test_golden_run(policy: str, allocator: str, engine: str) -> None:
    _check_snapshot(
        f"{policy}_{allocator}",
        run_case(policy, allocator, engine),
        f"on the {engine} engine",
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_golden_retrain_mid_run(engine: str) -> None:
    """The drift->retrain->register->swap case, pinned per engine.

    Beyond the traffic statistics this pins the registered model
    ids (content digests of the refit weights + training key), so the
    online retraining arithmetic itself is under snapshot control.
    """
    actual = run_retrain_case(engine)
    assert actual["retrain_events"] >= 1, "the golden case must retrain"
    _check_snapshot(RETRAIN_CASE, actual, f"on the {engine} engine")


@pytest.mark.parametrize("engine", ENGINES)
def test_golden_collective_retrain(engine: str) -> None:
    """The collective-driven drift->retrain->register case, per engine."""
    actual = run_collective_retrain_case(engine)
    assert actual["retrain_events"] >= 1, "the golden case must retrain"
    _check_snapshot(COLLECTIVE_RETRAIN_CASE, actual, f"on the {engine} engine")


@pytest.mark.parametrize("engine", ENGINES)
def test_golden_collective_pam4(engine: str) -> None:
    """The PAM4 all-to-all case: multilevel signaling under snapshot."""
    _check_snapshot(
        COLLECTIVE_PAM4_CASE,
        run_collective_pam4_case(engine),
        f"on the {engine} engine",
    )


@pytest.mark.parametrize("divisor", CMESH_DIVISORS)
def test_golden_cmesh(divisor: int) -> None:
    """The electrical CMESH baseline at one link-width divisor."""
    _check_snapshot(
        cmesh_case(divisor), run_cmesh_case(divisor), "on the CMESH"
    )


def test_golden_mwsr() -> None:
    """The token-arbitrated MWSR crossbar baseline."""
    _check_snapshot(MWSR_CASE, run_mwsr_case(), "on the MWSR crossbar")
