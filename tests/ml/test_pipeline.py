"""Tests for repro.ml.pipeline — the two-phase training pipeline.

These run the real simulator at tiny scales, so they are the slowest
unit tests in the suite; the session-scoped ``tiny_trained_model``
fixture amortises most of the cost.
"""

import numpy as np
import pytest

from repro.config import PearlConfig, PowerScalingConfig, SimulationConfig

# Every test here drives the real simulator through collection or
# training — the definition of the slow tier.
pytestmark = pytest.mark.slow
from repro.ml.pipeline import (
    PowerModelTrainer,
    collect_datasets,
    collect_pair_dataset,
)
from repro.traffic.benchmarks import CPU_BENCHMARKS, GPU_BENCHMARKS


def _small_config():
    return PearlConfig(
        simulation=SimulationConfig(warmup_cycles=100, measure_cycles=1_200),
        power_scaling=PowerScalingConfig(reservation_window=200),
    )


PAIR = (CPU_BENCHMARKS["blackscholes"], GPU_BENCHMARKS["binary_search"])


class TestCollection:
    def test_random_phase_collects_samples(self):
        dataset = collect_pair_dataset(PAIR, _small_config(), seed=1)
        assert len(dataset) > 17  # several windows x 17 routers
        X, y = dataset.arrays()
        assert X.shape[1] == 30
        assert np.all(y >= 0)

    def test_collection_is_deterministic(self):
        a = collect_pair_dataset(PAIR, _small_config(), seed=1)
        b = collect_pair_dataset(PAIR, _small_config(), seed=1)
        Xa, ya = a.arrays()
        Xb, yb = b.arrays()
        assert np.array_equal(Xa, Xb)
        assert np.array_equal(ya, yb)

    def test_model_driven_phase(self, tiny_trained_model):
        dataset = collect_pair_dataset(
            PAIR,
            _small_config(),
            seed=2,
            driving_model=tiny_trained_model.model,
        )
        assert len(dataset) > 0

    def test_collect_datasets_merges(self):
        pairs = [PAIR, (CPU_BENCHMARKS["barnes"], GPU_BENCHMARKS["histogram"])]
        merged = collect_datasets(pairs, _small_config(), seed=1)
        single = collect_pair_dataset(PAIR, _small_config(), seed=1)
        assert len(merged) > len(single)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            collect_datasets([], _small_config())


class TestTraining:
    def test_pipeline_produces_fitted_model(self, tiny_trained_model):
        assert tiny_trained_model.model.is_fitted
        assert tiny_trained_model.phase1_model.is_fitted
        assert tiny_trained_model.lam > 0

    def test_history_records_phases(self, tiny_trained_model):
        text = "\n".join(tiny_trained_model.history)
        assert "phase1" in text
        assert "phase2" in text

    def test_sample_counts_positive(self, tiny_trained_model):
        assert tiny_trained_model.phase1_samples > 0
        assert tiny_trained_model.phase2_samples > 0

    def test_validation_nrmse_reasonable(self, tiny_trained_model):
        """On tiny data the fit is rough but must beat noise (> -1)."""
        assert tiny_trained_model.validation_nrmse > -1.0
        assert tiny_trained_model.validation_nrmse <= 1.0

    def test_model_predicts_nonnegative_scale(self, tiny_trained_model):
        """Typical-feature predictions land near label magnitudes."""
        prediction = tiny_trained_model.model.predict(np.zeros(30))
        assert np.isfinite(prediction)

    def test_quick_mode_shrinks_pairs(self):
        trainer = PowerModelTrainer(quick=True)
        assert len(trainer.train_pairs) == 6
        assert len(trainer.val_pairs) == 2

    def test_full_mode_uses_all_pairs(self):
        trainer = PowerModelTrainer(quick=False)
        assert len(trainer.train_pairs) == 36
        assert len(trainer.val_pairs) == 4


@pytest.fixture
def tiny_trainer(monkeypatch, tmp_path):
    """Shrink the default training drastically and isolate the registry."""
    from repro.ml import pipeline as pl

    monkeypatch.setenv("PEARL_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("PEARL_REGISTRY_DIR", raising=False)
    trainer_pairs = [
        (CPU_BENCHMARKS["blackscholes"], GPU_BENCHMARKS["binary_search"])
    ]
    val_pairs = [(CPU_BENCHMARKS["raytrace"], GPU_BENCHMARKS["prefix_sum"])]

    original_init = pl.PowerModelTrainer.__init__

    def tiny_init(self, config=None, train_pairs=None, val_pairs_=None,
                  seed=2018, quick=False, **kwargs):
        original_init(
            self,
            config=_small_config(),
            train_pairs=trainer_pairs,
            val_pairs=val_pairs,
            seed=seed,
            quick=False,
        )

    monkeypatch.setattr(pl.PowerModelTrainer, "__init__", tiny_init)
    pl._MODEL_CACHE.clear()
    yield pl
    pl._MODEL_CACHE.clear()


class TestRegistryCache:
    def test_registry_round_trip(self, tiny_trainer):
        """A second process-equivalent call loads the registered model."""
        import numpy as np

        from repro.ml.lifecycle import default_registry

        pl = tiny_trainer
        first = pl.train_default_model(200, quick=True, seed=99)
        registry = default_registry()
        records = registry.list()
        assert len(records) == 1
        assert "production" in records[0].tags
        assert records[0].training["key"]["reservation_window"] == 200
        assert records[0].metrics["validation_nrmse"] == pytest.approx(
            first.validation_nrmse
        )

        pl._MODEL_CACHE.clear()
        second = pl.train_default_model(200, quick=True, seed=99)
        assert np.array_equal(second.model.weights, first.model.weights)
        assert second.lam == first.lam
        assert second.validation_nrmse == pytest.approx(
            first.validation_nrmse
        )
        # The registry hit did not mint a second version.
        assert len(registry.list()) == 1

    def test_corrupt_registry_artifact_retrained(self, tiny_trainer):
        """A mangled artifact is retrained and repaired, not crashed on."""
        import numpy as np

        from repro.ml.ridge import RidgeRegression

        pl = tiny_trainer
        first = pl.train_default_model(200, quick=True, seed=99)
        model_path = pl.ensure_model_file(200, quick=True, seed=99)
        model_path.write_bytes(b"not a zip archive")

        pl._MODEL_CACHE.clear()
        retrained = pl.train_default_model(200, quick=True, seed=99)
        assert np.allclose(retrained.model.weights, first.model.weights)
        # ensure_model_file never hands workers an unloadable path.
        pl._MODEL_CACHE.clear()
        path = pl.ensure_model_file(200, quick=True, seed=99)
        loaded = RidgeRegression.load(path)
        assert np.allclose(loaded.weights, first.model.weights)

    def test_schema_mismatch_forces_retrain(self, tiny_trainer):
        """A feature-schema change retrains instead of serving the hit.

        Doctoring the stored record's schema hash simulates a model
        trained before an MLConfig feature-flag change: the lookup key
        still matches, but deploying it would misinterpret the inputs.
        """
        import json

        from repro.ml.lifecycle import default_registry
        from repro.ml.lifecycle.registry import schema_hash

        pl = tiny_trainer
        pl.train_default_model(200, quick=True, seed=99)
        registry = default_registry()
        record = registry.list()[0]
        # Turn the stored version into a stale-schema one: same training
        # key, but a feature contract that no longer matches MLConfig.
        stale_id = "f" * 16
        obj_dir = registry.root / "objects" / record.model_id
        stale_dir = registry.root / "objects" / stale_id
        obj_dir.rename(stale_dir)
        meta = json.loads((stale_dir / "meta.json").read_text())
        meta["model_id"] = stale_id
        meta["schema_hash"] = "0" * 64
        (stale_dir / "meta.json").write_text(json.dumps(meta))

        pl._MODEL_CACHE.clear()
        pl.train_default_model(200, quick=True, seed=99)
        records = registry.list()
        # A fresh version exists alongside the stale-schema one, and
        # the key now resolves to the current-schema model.
        assert len(records) == 2
        hit = registry.find_by_key(
            {
                "pipeline": "two_phase_default",
                "reservation_window": 200,
                "quick": True,
                "seed": 99,
            },
            with_schema_hash=schema_hash(),
        )
        assert hit is not None
        assert hit.schema_hash == schema_hash()
        assert hit.model_id != stale_id

    def test_ensure_model_file_points_into_registry(self, tiny_trainer):
        """The worker-visible path is the registry's object store."""
        from repro.ml.lifecycle import default_registry

        pl = tiny_trainer
        path = pl.ensure_model_file(200, quick=True, seed=99)
        registry = default_registry()
        assert registry.root in path.parents
        assert path.name == "model.npz"
