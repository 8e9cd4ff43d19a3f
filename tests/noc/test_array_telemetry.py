"""Array-engine telemetry identity: instrumentation changes nothing.

The array core is a first-class instrumented path — ``run(engine=
"array")`` under an enabled session executes on the ArrayCore (no
silent downgrade to the scalar path) and must satisfy two identities:

* **Simulation identity**: an instrumented array run is bit-identical
  to an uninstrumented array run (telemetry is observational).
* **Telemetry identity**: the metrics registry, the window series and
  the deterministic (non-wall) trace events of an array run equal
  those of a reference-engine run — the window-close flow is shared, and
  both engines count the DBA split of each photonic dispatch where it
  is sent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.noc.network import PearlNetwork

from .. import oracle
from ..oracle import FAULTS, Run


@pytest.fixture(autouse=True)
def _telemetry_off():
    obs.disable()
    yield
    obs.disable()


def _run(run, engine, instrumented=True):
    """One run; returns (fingerprint, registry, series, events)."""
    network = run.network()
    trace = run.build_trace()
    if not instrumented:
        result = network.run(trace, engine=engine)
        return oracle.fingerprint(network, result), None, None, None
    with obs.session():
        result = network.run(trace, engine=engine)
        registry = obs.OBS.registry.snapshot(include_volatile=False)
        series = obs.OBS.series.arrays()
        events = obs.OBS.tracer.snapshot(include_wall=False)
    return oracle.fingerprint(network, result), registry, series, events


def _assert_series_equal(a, b):
    assert set(a) == set(b)
    for column in a:
        if a[column].dtype.kind == "f":
            assert np.array_equal(a[column], b[column], equal_nan=True), column
        else:
            assert np.array_equal(a[column], b[column]), column


PAIR = ("pair", "fluidanimate", "dct", 1_600, 11)
SCENARIOS = {
    "reactive": Run(PAIR, policy="reactive"),
    "ml-quantized": Run(PAIR, policy="ml", model="toy", quantization="q4.12"),
    "faulted": Run(PAIR, faults=FAULTS),
    "ml-faulted": Run(PAIR, policy="ml", model="toy", faults=FAULTS),
}


class TestArrayInstrumentedIdentity:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_instrumented_array_matches_bare_array(self, name):
        run = SCENARIOS[name]
        instrumented, _, _, _ = _run(run, "array", instrumented=True)
        bare, _, _, _ = _run(run, "array", instrumented=False)
        assert instrumented == bare

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_array_telemetry_matches_reference(self, name):
        run = SCENARIOS[name]
        result_a, registry_a, series_a, events_a = _run(run, "array")
        result_r, registry_r, series_r, events_r = _run(run, "reference")
        assert result_a == result_r
        assert registry_a == registry_r
        _assert_series_equal(series_a, series_r)
        assert events_a == events_r

    def test_series_has_rows_and_all_routers(self):
        run = SCENARIOS["ml-quantized"]
        _, _, series, _ = _run(run, "array")
        assert len(series["cycle"]) > 0
        assert set(series["router"].tolist()) == set(
            range(run.config().architecture.num_routers)
        )
        # ML runs carry finite predictions in the series.
        assert np.isfinite(series["predicted"]).any()

    def test_faulted_series_carries_fault_counters(self):
        _, _, series, _ = _run(SCENARIOS["ml-faulted"], "array")
        assert int(series["crc_errors"].max()) > 0


class TestNoSilentDowngrade:
    def test_instrumented_array_never_takes_the_scalar_path(
        self, monkeypatch
    ):
        """The old behaviour downgraded array->scalar under telemetry;
        prove an instrumented array run never steps the scalar engine."""

        def boom(self, cycle, cursor=None):  # pragma: no cover - must not run
            raise AssertionError("array run fell back to the scalar path")

        monkeypatch.setattr(PearlNetwork, "step", boom)
        result, _, _, _ = _run(SCENARIOS["reactive"], "array")
        assert result["stats"]["local_packets_delivered"] > 0

    def test_engine_accounting(self):
        run = SCENARIOS["reactive"]
        trace = run.build_trace()
        # One network per engine: a network runs once.
        networks = {engine: run.network() for engine in ("array", "reference")}
        with obs.session():
            for engine, network in networks.items():
                network.run(trace, engine=engine)
            engines = dict(obs.OBS.engines)
        assert engines == {"array": 1, "reference": 1}
        for engine, network in networks.items():
            assert network.last_engine_used == engine

    def test_default_engine_is_the_array_core(self):
        run = SCENARIOS["reactive"]
        network = run.network()
        with obs.session():
            network.run(run.build_trace())
            engines = dict(obs.OBS.engines)
        assert network.last_engine_used == "array"
        assert engines == {"array": 1}
