"""Network instrumentation sites and their determinism guarantee.

Telemetry must be strictly observational: a run with the session
enabled produces byte-identical simulation results to one without.
These tests drive the real network on both cycle engines and check
the emitted metrics and that guarantee.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import obs
from repro.config import PearlConfig, PowerScalingConfig, SimulationConfig
from repro.faults import (
    BitErrorFault,
    FaultSchedule,
    LaserDroopFault,
    WavelengthFault,
    load_fault_schedule,
)
from repro.ml.lifecycle.registry import ModelRegistry
from repro.noc.network import PearlNetwork
from repro.noc.router import PowerPolicyKind
from repro.obs import OBS
from repro.traffic.benchmarks import get_benchmark, training_pairs
from repro.traffic.synthetic import generate_pair_trace

from .. import oracle
from ..golden import golden_cases as golden

FAULTS_YAML = Path(__file__).resolve().parents[2] / "examples" / "faults.yaml"


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
    network = oracle.keep_delivery_order(
        PearlNetwork(config, power_policy=PowerPolicyKind.REACTIVE, seed=seed)
    )
    return oracle.fingerprint(network, network.run(trace, engine=engine))


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
        plain = _tiny_run()
        with obs.session():
            instrumented = _tiny_run()
        assert plain == instrumented

    def test_array_engine_reports_same_sim_metrics(self):
        """An instrumented array-engine run matches the reference run.

        The array core's lazily settled spans (link samples, laser
        state cycles) and its per-dispatch DBA split counts land in the
        same metrics as the reference engine's — no new metric names,
        no diverging values.  Wall-clock trace spans are excluded: only
        the simulated quantities must agree.
        """
        with obs.session():
            reference = _tiny_run(engine="reference")
            ref_metrics = OBS.registry.snapshot()
        with obs.session():
            array = _tiny_run(engine="array")
            array_metrics = OBS.registry.snapshot()
        assert reference == array
        assert sorted(ref_metrics) == sorted(array_metrics)
        assert ref_metrics == array_metrics

    def test_disabled_session_records_nothing(self):
        with obs.session():
            registry = OBS.registry
        _tiny_run()
        assert registry.names() == []


class TestDbaSplitConservation:
    """``dba/split/*`` counts the photonic dispatches of the measured phase.

    Every photonic dispatch is counted once, under the split that sent
    it, so on every policy, allocator and fault schedule the counters
    sum to the reservations sent after the warm-up boundary, and the
    two engines report the same counters.
    """

    @pytest.mark.parametrize("warmup", [0, 300])
    @pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
    @pytest.mark.parametrize("allocator", golden.ALLOCATORS)
    @pytest.mark.parametrize("policy", golden.POLICIES)
    def test_splits_sum_to_measured_dispatches(
        self, policy, allocator, faults, warmup, monkeypatch
    ):
        config = PearlConfig(
            simulation=SimulationConfig(
                warmup_cycles=warmup, measure_cycles=1_200
            ),
            power_scaling=PowerScalingConfig(reservation_window=200),
        )
        schedule = load_fault_schedule(FAULTS_YAML) if faults else None
        trace = generate_pair_trace(
            get_benchmark("fluidanimate"),
            get_benchmark("dct"),
            config.architecture,
            config.simulation.total_cycles,
            3,
        )
        sent_at_warmup = []
        begin = PearlNetwork._begin_measurement

        def spy(network, cycle):
            sent_at_warmup.append(
                sum(router.reservations_sent for router in network.routers)
            )
            begin(network, cycle)

        monkeypatch.setattr(PearlNetwork, "_begin_measurement", spy)
        splits = {}
        for engine in ("reference", "array"):
            network = PearlNetwork(
                config,
                power_policy=PowerPolicyKind(policy),
                use_dynamic_bandwidth=(allocator == "dynamic"),
                ml_model=oracle.literal_model() if policy == "ml" else None,
                seed=3,
                faults=schedule,
            )
            with obs.session():
                network.run(trace, engine=engine)
                snap = OBS.registry.snapshot()
            splits[engine] = {
                name: data["value"]
                for name, data in snap.items()
                if name.startswith("dba/")
            }
            sent = (
                sum(router.reservations_sent for router in network.routers)
                - sent_at_warmup[-1]
            )
            assert sent > 0
            assert sum(splits[engine].values()) == sent, engine
        assert splits["reference"] == splits["array"]


class _Tripwire:
    """Stands in for an instrument and fails on any attribute access."""

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)

    def __getattribute__(self, attr: str):
        name = object.__getattribute__(self, "name")
        raise AssertionError(f"a run without a session read OBS.{name}.{attr}")

    def __setattr__(self, attr: str, value) -> None:
        name = object.__getattribute__(self, "name")
        raise AssertionError(f"a run without a session set OBS.{name}.{attr}")


#: A schedule whose faults all start (and the transient ones clear)
#: inside a 1,200-cycle run: ring loss clamps every router's state,
#: laser droop caps the L3 router, bit errors trigger CRC retries.
EARLY_FAULTS = FaultSchedule(
    wavelength_faults=(WavelengthFault(wavelengths=40, start=400, end=800),),
    droop_faults=(LaserDroopFault(max_state=16, router=16, start=600),),
    bit_error_faults=(BitErrorFault(rate=0.002, start=300),),
)


class TestRunWithoutSessionTouchesNoInstrument:
    """Every instrumentation site sits behind ``OBS.enabled``.

    The registry, tracer and window series are swapped for tripwires,
    so one unguarded site on either engine, under any policy, fault
    path or the mid-run retrain, fails the run.
    """

    @pytest.fixture(autouse=True)
    def _tripwires(self):
        real = OBS.registry, OBS.tracer, OBS.series
        OBS.registry = _Tripwire("registry")
        OBS.tracer = _Tripwire("tracer")
        OBS.series = _Tripwire("series")
        try:
            yield
        finally:
            OBS.registry, OBS.tracer, OBS.series = real

    @pytest.mark.parametrize("engine", ["reference", "array"])
    @pytest.mark.parametrize("faults", ["clean", "faults.yaml", "early"])
    @pytest.mark.parametrize("policy", golden.POLICIES + ("ml-retrain",))
    def test_run_reads_no_instrument(self, policy, faults, engine, tmp_path):
        config = PearlConfig(
            simulation=SimulationConfig(warmup_cycles=200, measure_cycles=1_000),
            power_scaling=PowerScalingConfig(reservation_window=100),
        )
        model = None
        if policy == "ml-retrain":
            config = config.replace(ml=golden.retrain_config().ml)
            model = oracle.drifting_model()
        elif policy == "ml":
            model = oracle.literal_model()
        schedule = {
            "clean": None,
            "faults.yaml": load_fault_schedule(FAULTS_YAML),
            "early": EARLY_FAULTS,
        }[faults]
        trace = generate_pair_trace(
            get_benchmark("fluidanimate"),
            get_benchmark("dct"),
            config.architecture,
            config.simulation.total_cycles,
            3,
        )
        network = PearlNetwork(
            config,
            power_policy=PowerPolicyKind(policy.split("-")[0]),
            ml_model=model,
            seed=3,
            faults=schedule,
            registry=ModelRegistry(tmp_path),
        )
        result = network.run(trace, engine=engine)
        # The paths under test were reached.
        assert result.stats.packets_delivered > 0
        if policy == "ml-retrain":
            assert result.retrain_events > 0
        if faults == "early":
            assert result.stats.crc_errors > 0
            assert result.stats.fault_clamp_events > 0
