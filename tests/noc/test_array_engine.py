"""White-box checks of the array core that whole-run identity cannot
express: its collection stream, the boundaries at which it lands a
skipped laser turn-on, and the cycles at which its idle skipping stops.

Whole-run identity with the reference engine, over hand-picked rows and
generated runs, lives in ``test_engine_identity.py``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.config import PhotonicConfig
from repro.faults import FaultSchedule, LaserDroopFault, WavelengthFault
from repro.noc.array_core import ArrayCore
from repro.noc.network import PearlNetwork
from repro.noc.router import PowerPolicyKind

from .. import oracle
from ..oracle import Run


class TestCollectionModeIdentity:
    """ML training data is collected on the default (array) engine, so
    the ``(router_id, features, label)`` stream that
    :meth:`PearlNetwork.enable_collection` records must equal the
    oracle's — for both phases of the collection pipeline."""

    def _stream(self, engine, policy):
        run = Run(("pair", "fluidanimate", "dct", 1_600, 5), seed=5)
        config = run.config()
        model = None
        if policy is PowerPolicyKind.ML:
            config = config.replace(
                ml=replace(config.ml, reintroduce_8wl=False)
            )
            model = oracle.toy_model()
        network = PearlNetwork(
            config=config, power_policy=policy, ml_model=model, seed=5
        )
        rows = []
        network.enable_collection(
            lambda rid, feats, label: rows.append(
                (rid, np.asarray(feats, dtype=float).tobytes(), label)
            )
        )
        network.run(run.build_trace(), engine=engine)
        return rows

    @pytest.mark.parametrize("phase", ["random", "ml-driven"])
    def test_collection_stream_identical(self, phase):
        """Phase 1 runs the RANDOM policy; phase 2 drives the ML policy
        with the 8 WL state disabled, as ``collect_pair_dataset`` does."""
        policy = (
            PowerPolicyKind.RANDOM if phase == "random" else PowerPolicyKind.ML
        )
        streams = {
            engine: self._stream(engine, policy) for engine in oracle.ENGINES
        }
        reference = streams["reference"]
        assert len({rid for rid, *_ in reference}) == 17
        assert streams["array"] == reference


class TestTurnOnSkippedAtRunBoundary:
    """A laser turn-on that completes inside an idle span skipped right
    before the warm-up boundary or the end of the run has no later
    executed cycle to land it, so the boundary itself must land it
    when it settles the laser banks (regression: the array core used
    to settle the turn-on span as stall time in the old state, or fail
    with a backwards settlement at the next flip).

    Each case idles the network and schedules the upward transition so
    it completes five cycles before the boundary: a RANDOM-policy
    window close, or a static-policy run whose wavelength or droop
    fault clears and releases the clamp.
    """

    WINDOW = 100

    def _run(self, cause, boundary, turn_on_ns) -> Run:
        w = self.WINDOW
        turn_on = PhotonicConfig(laser_turn_on_ns=turn_on_ns).turn_on_cycles()
        # The other boundary sits one cycle after a window close, where
        # no transition is due, so only ``boundary`` sees a skipped flip.
        if boundary == "warm-up":
            warmup, total = 2 * w + turn_on + 5, 5 * w + 1
            release = 2 * w
        else:
            warmup, total = 2 * w + 1, 5 * w + turn_on + 5
            release = 5 * w
        run = Run(
            ("events", ()),
            warmup=warmup,
            measure=total - warmup,
            window=w,
            stagger=0,
            turn_on_ns=turn_on_ns,
        )
        if cause == "window-close":
            return replace(run, policy="random")
        if cause == "wavelength-clear":
            faults = FaultSchedule(
                wavelength_faults=(
                    WavelengthFault(wavelengths=40, start=20, end=release),
                )
            )
        else:
            faults = FaultSchedule(
                droop_faults=(
                    LaserDroopFault(max_state=8, start=20, end=release),
                )
            )
        return replace(run, faults=faults)

    @pytest.mark.parametrize("turn_on_ns", [2.0, 40.0])
    @pytest.mark.parametrize("boundary", ["warm-up", "end-of-run"])
    @pytest.mark.parametrize(
        "cause", ["window-close", "wavelength-clear", "droop-clear"]
    )
    def test_turn_on_completing_in_skipped_span(
        self, cause, boundary, turn_on_ns, monkeypatch
    ):
        due = {}

        def probe(name, settle):
            def wrapped(core, cycle):
                due[name] = core._next_flip <= cycle
                settle(core, cycle)

            return wrapped

        for name, step in (
            ("warm-up", "_begin_measurement"),
            ("end-of-run", "_finish"),
        ):
            monkeypatch.setattr(
                ArrayCore, step, probe(name, getattr(ArrayCore, step))
            )
        oracle.check_run(self._run(cause, boundary, turn_on_ns))
        # The scenario really leaves a landed-but-unapplied turn-on at
        # the boundary under test (and only there).
        assert due == {
            "warm-up": boundary == "warm-up",
            "end-of-run": boundary == "end-of-run",
        }


class TestSkipHorizonGuard:
    """Idle skipping stops at every fault transition: the onset and the
    clear each execute on their own cycle, where they clamp or release
    the lasers exactly as the reference engine's every-cycle tick does."""

    ONSET, CLEAR = 377, 455

    def _core(self, kind):
        if kind == "wavelength":
            schedule = FaultSchedule(
                wavelength_faults=(
                    WavelengthFault(
                        wavelengths=8, start=self.ONSET, end=self.CLEAR
                    ),
                )
            )
        else:
            schedule = FaultSchedule(
                droop_faults=(
                    LaserDroopFault(
                        max_state=32, start=self.ONSET, end=self.CLEAR
                    ),
                )
            )
        # A 1,000-cycle window puts every staggered boundary in the
        # first 170 cycles, so only the fault bounds the idle tail.
        run = Run(
            ("events", ()),
            faults=schedule,
            warmup=0,
            measure=600,
            window=1_000,
        )
        return ArrayCore(run.network())

    @pytest.mark.parametrize("kind", ["wavelength", "droop"])
    def test_skip_horizon_stops_at_fault_onset(self, kind):
        core = self._core(kind)
        core._advance(0, 200, None)
        assert core._skip_horizon(200, 600, None) == self.ONSET

    @pytest.mark.parametrize("kind", ["wavelength", "droop"])
    def test_idle_tail_executes_only_the_fault_transitions(self, kind):
        core = self._core(kind)
        skips = []
        skip_horizon = core._skip_horizon

        def recording_skip_horizon(cycle, end, cursor):
            horizon = skip_horizon(cycle, end, cursor)
            skips.append((cycle, horizon))
            return horizon

        core._skip_horizon = recording_skip_horizon
        core._advance(0, 600, None)
        # The loop only jumps through _skip_horizon: after a call
        # returns ``horizon`` it executes every cycle from there up to
        # the ``cycle`` argument of the next call (or the end).
        executed = []
        resume = 0
        for cycle, horizon in skips + [(600, None)]:
            executed.extend(range(resume, cycle))
            resume = horizon
        assert [c for c in executed if c >= 200] == [self.ONSET, self.CLEAR]
        clamps = [r.fault_clamp_events for r in core.routers]
        assert all(n > 0 for n in clamps)
