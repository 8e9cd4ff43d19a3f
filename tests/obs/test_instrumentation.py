"""Network instrumentation sites and their determinism guarantee.

Telemetry must be strictly observational: a run with the session
enabled produces byte-identical simulation results to one without.
These tests drive the real network on both cycle engines and check
the emitted metrics and that guarantee.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import obs
from repro.config import PearlConfig, SimulationConfig
from repro.noc.network import PearlNetwork, PearlRunResult
from repro.noc.router import PowerPolicyKind
from repro.obs import OBS
from repro.traffic.benchmarks import training_pairs
from repro.traffic.synthetic import generate_pair_trace


@pytest.fixture(autouse=True)
def _telemetry_off():
    obs.disable()
    yield
    obs.disable()


def _tiny_run(seed=7, engine="array"):
    config = PearlConfig().replace(
        simulation=SimulationConfig(warmup_cycles=500, measure_cycles=3_000)
    )
    cpu, gpu = training_pairs()[0]
    trace = generate_pair_trace(
        cpu, gpu, config.architecture, config.simulation.total_cycles, seed
    )
    network = PearlNetwork(
        config, power_policy=PowerPolicyKind.REACTIVE, seed=seed
    )
    return network.run(trace, engine=engine)


def _canonical(result):
    data = {}
    for field in dataclasses.fields(PearlRunResult):
        value = getattr(result, field.name)
        data[field.name] = value.to_dict() if hasattr(value, "to_dict") else value
    return data


class TestNetworkInstrumentation:
    def test_window_and_laser_metrics_emitted(self):
        with obs.session():
            _tiny_run()
            snap = OBS.registry.snapshot()
        assert snap["noc/windows_closed"]["value"] > 0
        assert snap["sim/runs"]["value"] == 1
        assert snap["noc/buffer_occupancy/cpu"]["count"] > 0
        assert snap["noc/buffer_occupancy/gpu"]["count"] > 0
        assert sum(
            data["value"]
            for name, data in snap.items()
            if name.startswith("dba/split/")
        ) > 0
        assert sum(
            data["value"]
            for name, data in snap.items()
            if name.startswith("laser/state_cycles/")
        ) > 0

    def test_window_close_events_emitted(self):
        with obs.session():
            _tiny_run()
            names = {e.name for e in OBS.tracer.events(include_wall=False)}
            wall = [e for e in OBS.tracer.events() if e.wall]
        assert "window_close" in names
        assert {e.name for e in wall} >= {
            "sim/warmup",
            "sim/measure",
            "sim/integrate_energy",
        }

    def test_run_identical_with_telemetry_on_or_off(self):
        plain = _canonical(_tiny_run())
        with obs.session():
            instrumented = _canonical(_tiny_run())
        assert plain == instrumented

    def test_array_engine_reports_same_sim_metrics(self):
        """An instrumented array-engine run matches the reference run.

        Lazily settled spans fold into the existing counters (DBA split
        tallies, link samples, laser state cycles) — no new metric
        names, no diverging values.  Wall-clock trace spans are
        excluded: only the simulated quantities must agree.
        """
        with obs.session():
            reference = _canonical(_tiny_run(engine="reference"))
            ref_metrics = OBS.registry.snapshot()
        with obs.session():
            array = _canonical(_tiny_run(engine="array"))
            array_metrics = OBS.registry.snapshot()
        assert reference == array
        assert sorted(ref_metrics) == sorted(array_metrics)
        assert ref_metrics == array_metrics

    def test_disabled_session_records_nothing(self):
        with obs.session():
            registry = OBS.registry
        _tiny_run()
        assert registry.names() == []
