"""The closed ML lifecycle loop: drift -> retrain -> register -> hot-swap.

Under ``drift_action="retrain"`` a drift event does not merely flag or
fall back — the network pools every router's deployment-time
(feature, label) buffer, refits a ridge model, registers it and swaps
it into every scaler mid-simulation.  No registry tag moves: what a
later ``--model production`` run deploys never depends on which jobs
happened to execute.  These tests pin:

* the scaler-side machinery (aligned ``training_pairs``, the
  ``adopt_model`` hot-swap, config validation);
* the end-to-end loop on a live network — the registry gains exactly
  one version and no tag, the obs stream records the swap cycle, and
  the post-swap model actually differs from the deployed one;
* the same loop through the job engine's worker, on the default
  registry, leaving its ``production`` tag where it was;
* cross-engine identity: the reference and array engines retrain at
  the same cycle and register byte-identical model ids.

The deployed model is handcrafted with a training-distribution scaler
centred far away from any real deployment features, so the feature
z-score trips the drift monitor deterministically right after
calibration — no training pipeline, no RNG.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.config import MLConfig, PearlConfig, SimulationConfig
from repro.experiments.parallel import execute_job, pair_spec, pearl_job
from repro.ml.features import NUM_FEATURES
from repro.ml.lifecycle.registry import (
    DEFAULT_TAG,
    ModelRegistry,
    default_registry,
)
from repro.ml.ridge import RidgeRegression
from repro.noc.network import PearlNetwork
from repro.noc.router import PowerPolicyKind
from repro.obs import OBS
from repro.traffic.benchmarks import get_benchmark
from repro.traffic.synthetic import generate_pair_trace

from ..golden import golden_cases as golden
from ..oracle import drifting_model


def _retrain_config(cooldown_windows: int = 10_000) -> PearlConfig:
    """Tight calibration, one guaranteed drift event, huge cooldown so
    at most one retrain can fire in the run."""
    config = PearlConfig(
        simulation=SimulationConfig(warmup_cycles=200, measure_cycles=4_000)
    ).with_reservation_window(200)
    return config.replace(
        ml=replace(
            config.ml,
            drift_detection=True,
            drift_action="retrain",
            drift_calibration_windows=4,
            drift_patience=2,
            retrain_min_samples=20,
            retrain_cooldown_windows=cooldown_windows,
        )
    )


def _trace(config: PearlConfig, seed: int = 1):
    return generate_pair_trace(
        get_benchmark("fluidanimate"),
        get_benchmark("dct"),
        config.architecture,
        config.simulation.total_cycles,
        seed,
    )


def _run(config, registry, engine: str, seed: int = 1):
    network = PearlNetwork(
        config,
        power_policy=PowerPolicyKind.ML,
        ml_model=drifting_model(),
        seed=seed,
        registry=registry,
    )
    result = network.run(_trace(config, seed), engine=engine)
    return network, result


class TestConfigValidation:
    def test_retrain_is_a_valid_drift_action(self):
        MLConfig(drift_action="retrain")

    def test_unknown_drift_action_rejected(self):
        with pytest.raises(ValueError):
            MLConfig(drift_action="reboot")

    def test_retrain_min_samples_bounds(self):
        with pytest.raises(ValueError):
            MLConfig(retrain_min_samples=1)

    def test_retrain_cooldown_bounds(self):
        with pytest.raises(ValueError):
            MLConfig(retrain_cooldown_windows=-1)


class TestAdoptModel:
    def _network_scaler(self):
        config = _retrain_config()
        network = PearlNetwork(
            config,
            power_policy=PowerPolicyKind.ML,
            ml_model=drifting_model(),
        )
        return network.routers[0].policy

    def test_unfitted_model_rejected(self):
        scaler = self._network_scaler()
        with pytest.raises(ValueError):
            scaler.adopt_model(RidgeRegression())

    def test_swap_replaces_model_and_rebuilds_monitor(self):
        scaler = self._network_scaler()
        old_monitor = scaler.drift_monitor
        scaler.retrain_pending = True
        replacement = RidgeRegression(lam=2.0, standardize=True)
        rng = np.random.default_rng(3)
        replacement.fit(
            rng.normal(size=(40, NUM_FEATURES)), rng.normal(size=40)
        )
        scaler.adopt_model(replacement)
        assert scaler.model is replacement
        assert scaler.models_adopted == 1
        assert scaler.retrain_pending is False
        assert scaler.drift_monitor is not old_monitor
        # The fresh monitor is baselined on the *new* model's scaler.
        assert np.array_equal(
            scaler.drift_monitor._train_mean, replacement._scaler.mean
        )

    def test_training_pairs_align_features_with_labels(self):
        scaler = self._network_scaler()
        for i in range(3):
            scaler.feature_rows.append(np.full(NUM_FEATURES, float(i)))
        scaler.labels.extend([10.0, 20.0])  # one label still pending
        X, y = scaler.training_pairs()
        assert X.shape == (2, NUM_FEATURES)
        assert list(y) == [10.0, 20.0]
        assert X[1, 0] == 1.0

    def test_training_pairs_empty_before_any_window(self):
        scaler = self._network_scaler()
        X, y = scaler.training_pairs()
        assert X.shape == (0, NUM_FEATURES)
        assert y.shape == (0,)


class TestRetrainLifecycle:
    def test_drift_retrains_registers_and_swaps_once(self, tmp_path):
        """One drift excursion -> exactly one registered version and no
        tag, observable on the obs stream, live in every scaler."""
        config = _retrain_config()
        registry = ModelRegistry(tmp_path / "registry")
        with obs.session():
            network, result = _run(config, registry, "array")
            counter = OBS.registry.counter("ml/retrain_events").value
            swaps = [
                event
                for event in OBS.tracer.events()
                if event.name == "ml_retrain"
            ]
        assert result.retrain_events == 1
        assert counter == 1
        records = registry.list()
        assert len(records) == 1
        registered_id = records[0].model_id
        assert result.retrained_model_ids == [registered_id]
        assert records[0].training["key"]["origin"] == "online-retrain"
        assert records[0].tags == []
        with pytest.raises(KeyError):
            registry.resolve(DEFAULT_TAG)
        # The swap event carries the registered id and the close cycle.
        (swap,) = swaps
        assert swap.args["model_id"] == registered_id
        assert swap.args["samples"] >= config.ml.retrain_min_samples
        # Every scaler now runs the retrained model, not the original.
        for router in network.routers:
            scaler = router.policy
            assert scaler.models_adopted == 1
            assert scaler.model.weights.shape == (NUM_FEATURES,)
            assert not np.array_equal(
                scaler.model.weights, drifting_model().weights
            )
        # Drift events observed before the swap survive the monitor
        # rebuild (they are folded into the result, not reset away).
        assert result.drift_events >= 1

    def test_retrain_job_leaves_production_where_it_was(
        self, tmp_path, monkeypatch
    ):
        """A retrain job run by the engine's worker (as ``sweep``,
        ``serve`` and ``simulate`` run it) registers its refit models
        in the default registry without moving ``production``."""
        monkeypatch.setenv("PEARL_REGISTRY_DIR", str(tmp_path / "registry"))
        registry = default_registry()
        deployed = registry.put(
            drifting_model(), training={"key": {"origin": "test"}}
        )
        registry.promote(deployed.model_id, DEFAULT_TAG)
        config = _retrain_config()
        spec = pearl_job(
            config,
            pair_spec(
                (get_benchmark("fluidanimate"), get_benchmark("dct")), 1
            ),
            power_policy=PowerPolicyKind.ML,
            ml_model_path=registry.model_path(deployed.model_id),
        )
        result = execute_job(spec)
        assert registry.resolve(DEFAULT_TAG) == deployed.model_id
        assert result.retrain_events >= 1
        listed = {record.model_id for record in registry.list()}
        assert set(result.retrained_model_ids) <= listed

    def test_cooldown_zero_allows_repeated_retrains(self, tmp_path):
        config = _retrain_config(cooldown_windows=0)
        registry = ModelRegistry(tmp_path / "registry")
        _, result = _run(config, registry, "array")
        assert result.retrain_events >= 1
        assert len(registry.list()) == result.retrain_events
        assert len(result.retrained_model_ids) == result.retrain_events

    def test_flag_action_never_touches_the_registry(self, tmp_path):
        config = _retrain_config()
        config = config.replace(ml=replace(config.ml, drift_action="flag"))
        registry = ModelRegistry(tmp_path / "registry")
        _, result = _run(config, registry, "array")
        assert result.retrain_events == 0
        assert registry.list() == []

    def test_engines_retrain_identically(self, tmp_path):
        """Both engines drift, retrain and swap at the same close,
        registering byte-identical model ids."""
        config = _retrain_config()
        out = {}
        for engine in ("reference", "array"):
            registry = ModelRegistry(tmp_path / f"registry-{engine}")
            _, result = _run(config, registry, engine)
            out[engine] = {
                "stats": result.stats.to_dict(),
                "residency": result.state_residency,
                "power": result.mean_laser_power_w,
                "retrain_events": result.retrain_events,
                "model_ids": list(result.retrained_model_ids),
                "drift_events": result.drift_events,
                "registry_ids": [r.model_id for r in registry.list()],
            }
        assert out["array"] == out["reference"]
        assert out["reference"]["retrain_events"] == 1


class TestSwapKeepsMonitorSettings:
    """A hot swap rebuilds every drift monitor through the same
    construction as the deployment, so per-router settings survive."""

    @pytest.mark.parametrize("engine", ["reference", "array"])
    def test_l3_monitor_stays_residual_only(self, engine, tmp_path):
        config = golden.retrain_config()
        network = PearlNetwork(
            config,
            power_policy=PowerPolicyKind.ML,
            ml_model=drifting_model(),
            seed=golden.GOLDEN_SEED,
            registry=ModelRegistry(tmp_path / "registry"),
        )
        trace = golden._collective_trace(config, "allreduce_ring")
        result = network.run(trace, engine=engine)
        assert result.retrain_events == 1
        l3 = network.routers[config.architecture.l3_router_id]
        assert l3.policy.drift_monitor.monitor_features is False
        assert all(
            router.policy.drift_monitor.monitor_features
            for router in network.routers
            if router is not l3
        )
        assert result.drift_events == 15


class TestDriftInstantCycles:
    @pytest.mark.parametrize("engine", ["reference", "array"])
    def test_drift_instants_carry_the_close_cycle(self, engine, tmp_path):
        """``ml_drift`` is stamped with the close that tripped it: router
        0 trips at the same close that retrains, and the rebuilt
        monitors of routers 1-16 trip after a fresh calibration."""
        config = golden.retrain_config()
        trace = generate_pair_trace(
            get_benchmark("fluidanimate"),
            get_benchmark("dct"),
            config.architecture,
            config.simulation.total_cycles,
            golden.GOLDEN_SEED,
        )
        network = PearlNetwork(
            config,
            power_policy=PowerPolicyKind.ML,
            ml_model=drifting_model(),
            seed=golden.GOLDEN_SEED,
            registry=ModelRegistry(tmp_path / "registry"),
        )
        with obs.session():
            network.run(trace, engine=engine)
            events = OBS.tracer.events(include_wall=False)
        (retrain,) = [e for e in events if e.name == "ml_retrain"]
        drifts = {}
        for event in events:
            if event.name == "ml_drift":
                drifts.setdefault(event.args["router"], event.ts)
        assert drifts[0] == retrain.ts == 600
        later = [drifts[router] for router in range(1, 17)]
        assert min(later) == 1210 and max(later) == 1360
