"""Drift regression over the collective workload family.

The deployed model is fitted on PARSEC-style deployment samples
(:func:`repro.ml.pipeline.deployment_fitted_model`), so its training
scaler records the in-distribution feature baseline.  This suite pins
the separation the lifecycle design promises:

* replaying the same family of traffic keeps every monitor quiet —
  zero drift events on a PARSEC pair deployment;
* phase-structured collective traffic is out-of-distribution — the
  cluster-router monitors trip, and under ``drift_action="retrain"``
  the closed loop refits, registers and hot-swaps a replacement whose
  registry id (a content digest) is byte-identical across both cycle
  engines.
"""

from __future__ import annotations

import dataclasses
import tempfile

import pytest

from repro.config import PearlConfig, SimulationConfig
from repro.ml.lifecycle.registry import ModelRegistry
from repro.ml.pipeline import deployment_fitted_model
from repro.noc.network import PearlNetwork
from repro.noc.router import PowerPolicyKind
from repro.traffic.benchmarks import test_pairs as benchmark_pairs
from repro.traffic.collectives import generate_collective_trace
from repro.traffic.synthetic import generate_pair_trace

SEED = 1
ENGINES = ("reference", "array")


@pytest.fixture(scope="module")
def model():
    """Deployment-fitted ridge model (two-phase, PARSEC pair 0)."""
    return deployment_fitted_model(seed=SEED)


def _drift_config(action: str) -> PearlConfig:
    config = PearlConfig(
        simulation=SimulationConfig(warmup_cycles=500, measure_cycles=8_000)
    ).with_reservation_window(200)
    return config.replace(
        ml=dataclasses.replace(
            config.ml,
            drift_detection=True,
            drift_action=action,
            drift_calibration_windows=8,
            drift_patience=3,
            drift_z_threshold=4.0,
            retrain_min_samples=20,
            retrain_cooldown_windows=10_000,
        )
    )


def _parsec_trace(config: PearlConfig):
    cpu, gpu = benchmark_pairs()[0]
    return generate_pair_trace(
        cpu, gpu, config.architecture, config.simulation.total_cycles, SEED
    )


def _collective_trace(config: PearlConfig, algorithm: str):
    return generate_collective_trace(
        algorithm,
        config.architecture,
        duration=config.simulation.total_cycles,
        seed=SEED,
    )


def test_parsec_deployment_stays_quiet(model):
    """In-distribution replay: no monitor trips, no retraining advice."""
    config = _drift_config("flag")
    network = PearlNetwork(
        config, power_policy=PowerPolicyKind.ML, ml_model=model, seed=SEED
    )
    result = network.run(_parsec_trace(config))
    assert result.drift_events == 0
    assert not result.drift_retraining_recommended


@pytest.mark.parametrize(
    "algorithm", ["allreduce_ring", "halving_doubling", "alltoall"]
)
def test_collective_trips_cluster_monitors(model, algorithm):
    """OOD collective traffic trips the feature-shift watchdogs."""
    config = _drift_config("flag")
    network = PearlNetwork(
        config, power_policy=PowerPolicyKind.ML, ml_model=model, seed=SEED
    )
    result = network.run(_collective_trace(config, algorithm))
    assert result.drift_events >= 8
    assert result.drift_retraining_recommended
    l3 = config.architecture.l3_router_id
    tripped = {
        router.router_id
        for router in network.routers
        if router.policy is not None
        and router.policy.drift_monitor is not None
        and router.policy.drift_monitor.trips
    }
    # The signal comes from the cluster routers; the L3 monitor is
    # residual-only (its feature stream is structurally unlike the
    # training population) and must not be the thing firing here.
    assert len(tripped - {l3}) >= 8


def test_parameter_server_trips_the_host(model):
    """The hotspot pattern concentrates drift on the parameter host."""
    config = _drift_config("flag")
    network = PearlNetwork(
        config, power_policy=PowerPolicyKind.ML, ml_model=model, seed=SEED
    )
    result = network.run(_collective_trace(config, "parameter_server"))
    assert result.drift_events >= 1
    from repro.traffic.collectives import PARAMETER_HOST

    host_monitor = network.routers[PARAMETER_HOST].policy.drift_monitor
    assert host_monitor is not None and host_monitor.trips


def test_retrain_closes_loop_identically_across_engines(model):
    """drift -> retrain -> register fires on a collective, same model
    ids (registry content digests) from every cycle engine."""
    ids_by_engine = {}
    for engine in ENGINES:
        config = _drift_config("retrain")
        with tempfile.TemporaryDirectory() as tmp:
            network = PearlNetwork(
                config,
                power_policy=PowerPolicyKind.ML,
                ml_model=model,
                seed=SEED,
                registry=ModelRegistry(tmp),
            )
            result = network.run(
                _collective_trace(config, "allreduce_ring"), engine=engine
            )
        assert result.retrain_events >= 1, engine
        assert len(result.retrained_model_ids) == result.retrain_events
        ids_by_engine[engine] = list(result.retrained_model_ids)
    assert ids_by_engine["array"] == ids_by_engine["reference"]


def test_no_retrain_on_parsec(model):
    """The retrain loop never fires on in-distribution traffic."""
    config = _drift_config("retrain")
    with tempfile.TemporaryDirectory() as tmp:
        network = PearlNetwork(
            config,
            power_policy=PowerPolicyKind.ML,
            ml_model=model,
            seed=SEED,
            registry=ModelRegistry(tmp),
        )
        result = network.run(_parsec_trace(config))
    assert result.retrain_events == 0
    assert result.retrained_model_ids == []
