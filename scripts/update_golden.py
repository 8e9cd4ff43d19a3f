#!/usr/bin/env python
"""Regenerate the golden-run snapshots under tests/golden/snapshots/.

Run after an *intentional* simulator behaviour change and commit the
resulting diff together with the code change.  Each PEARL case is
simulated on both cycle engines; the reference engine's result is the
snapshot, and the script refuses to write one the array engine
disagrees with — a divergence means a bug, not a new golden.  The
CMESH and MWSR baselines have one engine each and are written as run.

Usage: python scripts/update_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from tests.golden.golden_cases import (  # noqa: E402
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


def _write(outdir: Path, stem: str, doc: dict) -> None:
    path = outdir / f"{stem}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


def _write_checked(outdir: Path, stem: str, results: dict) -> bool:
    """Write one snapshot unless the engines disagree on it."""
    baseline_engine = ENGINES[0]
    baseline = results[baseline_engine]
    diverged = [
        engine for engine in ENGINES[1:] if results[engine] != baseline
    ]
    if diverged:
        print(
            f"ENGINE DIVERGENCE for {stem}: "
            f"{', '.join(diverged)} disagree with "
            f"{baseline_engine}; refusing to write a snapshot "
            "(fix the engines first)",
            file=sys.stderr,
        )
        return False
    _write(outdir, stem, baseline)
    return True


def main() -> int:
    outdir = ROOT / "tests" / "golden" / "snapshots"
    outdir.mkdir(parents=True, exist_ok=True)
    for policy in POLICIES:
        for allocator in ALLOCATORS:
            results = {
                engine: run_case(policy, allocator, engine)
                for engine in ENGINES
            }
            if not _write_checked(outdir, f"{policy}_{allocator}", results):
                return 1
    retrain = {engine: run_retrain_case(engine) for engine in ENGINES}
    if retrain[ENGINES[0]]["retrain_events"] < 1:
        print(
            f"{RETRAIN_CASE}: the case did not retrain; refusing to pin "
            "a snapshot without a mid-run swap",
            file=sys.stderr,
        )
        return 1
    if not _write_checked(outdir, RETRAIN_CASE, retrain):
        return 1
    collective_retrain = {
        engine: run_collective_retrain_case(engine) for engine in ENGINES
    }
    if collective_retrain[ENGINES[0]]["retrain_events"] < 1:
        print(
            f"{COLLECTIVE_RETRAIN_CASE}: the case did not retrain; "
            "refusing to pin a snapshot without a mid-run swap",
            file=sys.stderr,
        )
        return 1
    if not _write_checked(outdir, COLLECTIVE_RETRAIN_CASE, collective_retrain):
        return 1
    collective_pam4 = {
        engine: run_collective_pam4_case(engine) for engine in ENGINES
    }
    if not _write_checked(outdir, COLLECTIVE_PAM4_CASE, collective_pam4):
        return 1
    for divisor in CMESH_DIVISORS:
        _write(outdir, cmesh_case(divisor), run_cmesh_case(divisor))
    _write(outdir, MWSR_CASE, run_mwsr_case())
    return 0


if __name__ == "__main__":
    sys.exit(main())
