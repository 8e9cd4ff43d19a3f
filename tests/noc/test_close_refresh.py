"""The array core's window close refreshes only what the close changed.

:meth:`ArrayCore._close_boundary` refreshes the transmit mirrors
(``_ser_now``/``_tx_ok``) and the DBA pin mirrors of the closing rows
only, and recomputes ``_next_flip`` over every bank only when a closer
had a turn-on pending before the close.  After every close of a run
these tests require the core's state to equal a full recompute, on
runs that reach each path: a turn-on delay longer than the window
(closers with pending turn-ons), the example fault schedule (clamped
states), D3NOC (window pins) and ML with online retraining.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.faults.schedule import load_fault_schedule
from repro.noc.array_core import _FAR, ArrayCore

from ..oracle import Run

ROOT = Path(__file__).resolve().parents[2]

PAIR = ("pair", "fluidanimate", "dct", 1_600, 5)


def assert_full_recompute(core: ArrayCore) -> None:
    """Every mirror a close may refresh equals its recomputed value."""
    pending = [
        bank._flip_cycle
        for bank in core._banks
        if bank._pending_state is not None
    ]
    assert core._next_flip == (min(pending) if pending else _FAR)
    for r, (bank, router) in enumerate(zip(core._banks, core.routers)):
        injector = router._fault_injector
        assert core._link_down[r] == (
            injector is not None and injector.link_down
        ), r
        assert core._ser_now[r] == core._ser[bank.state], r
        assert core._tx_ok[r] == (
            bank.can_transmit and not core._link_down[r]
        ), r
        dba = core._dbas[r]
        assert core._dba_pin_label[r] == dba.pinned_label, r
        if dba.pinned is not None:
            assert core._dba_pin_cf[r] == dba.pinned.cpu_fraction, r
            assert core._dba_pin_gf[r] == dba.pinned.gpu_fraction, r


@pytest.fixture
def closes(monkeypatch):
    """Check the core after every close; record, per close, whether a
    closer had a turn-on pending before it."""
    record = []
    inner = ArrayCore._close_boundary

    def close_and_check(core, cycle):
        rows = core._close_groups[core._group][0]
        record.append(
            any(core._banks[r]._pending_state is not None for r in rows)
        )
        inner(core, cycle)
        assert_full_recompute(core)

    monkeypatch.setattr(ArrayCore, "_close_boundary", close_and_check)
    return record


def _run(run: Run, root: Path):
    network = run.network(root)
    network.run(run.build_trace(), engine="array")
    return network


def test_closers_with_pending_turn_ons(closes, tmp_path):
    """A 100 ns turn-on (200 cycles) outlasts a 100-cycle window, so
    closers often still wait for a turn-on their previous close asked
    for, and a new request may move or cancel the minimum flip."""
    run = Run(PAIR, policy="reactive", window=100, turn_on_ns=100.0, seed=5)
    _run(run, tmp_path)
    assert any(closes), "no closer had a turn-on pending"
    assert not all(closes)


def test_example_fault_schedule(closes, tmp_path):
    """``examples/faults.yaml`` over 500 + 15,000 cycles: every fault
    starts and the wavelength and bit-error spans clear."""
    faults = load_fault_schedule(ROOT / "examples" / "faults.yaml")
    run = Run(
        ("pair", "fluidanimate", "dct", 15_500, 5),
        policy="reactive",
        faults=faults,
        warmup=500,
        measure=15_000,
        window=500,
        turn_on_ns=40.0,
    )
    network = _run(run, tmp_path)
    assert closes
    assert any(router.fault_clamp_events for router in network.routers)


def test_d3noc_pins(closes, tmp_path):
    network = _run(Run(PAIR, policy="d3noc", window=100), tmp_path)
    assert closes
    assert all(router.dba.pinned is not None for router in network.routers)


def test_ml_with_online_retraining(closes, tmp_path):
    run = Run(
        PAIR,
        policy="ml",
        model="drifting",
        drift_action="retrain",
        window=100,
        turn_on_ns=40.0,
    )
    network = _run(run, tmp_path)
    assert closes
    assert network.retrain_events >= 1
