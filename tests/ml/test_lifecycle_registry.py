"""Tests for repro.ml.lifecycle.registry — versioned model artifacts."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.ml.lifecycle.registry import (
    DEFAULT_TAG,
    ModelRecord,
    ModelRegistry,
    default_registry,
    feature_schema,
    schema_hash,
)
from repro.ml.ridge import RidgeRegression


def _fitted_model(seed: int = 0, lam: float = 1.0) -> RidgeRegression:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(40, 30))
    t = X @ rng.normal(size=30) + 3.0
    return RidgeRegression(lam=lam).fit(X, t)


@pytest.fixture
def registry(tmp_path) -> ModelRegistry:
    return ModelRegistry(tmp_path / "registry")


class TestSchema:
    def test_schema_lists_table3_names(self):
        schema = feature_schema()
        assert len(schema["names"]) == 30
        assert schema["names"][0] == "l3_router"
        assert schema["num_features"] == 30

    def test_schema_hash_stable(self):
        assert schema_hash() == schema_hash(feature_schema())

    def test_schema_hash_tracks_content(self):
        doctored = feature_schema()
        doctored["num_features"] = 29
        assert schema_hash(doctored) != schema_hash()


class TestPut:
    def test_put_creates_artifact(self, registry):
        record = registry.put(_fitted_model())
        assert (registry.root / "objects" / record.model_id / "model.npz").exists()
        assert (registry.root / "objects" / record.model_id / "meta.json").exists()
        assert record.schema_hash == schema_hash()

    def test_put_is_idempotent(self, registry):
        first = registry.put(_fitted_model(), training={"key": {"seed": 1}})
        second = registry.put(_fitted_model(), training={"key": {"seed": 1}})
        assert first.model_id == second.model_id
        assert len(registry) == 1

    def test_different_content_mints_new_version(self, registry):
        a = registry.put(_fitted_model(seed=0))
        b = registry.put(_fitted_model(seed=1))
        assert a.model_id != b.model_id
        assert len(registry) == 2

    def test_different_key_mints_new_version(self, registry):
        a = registry.put(_fitted_model(), training={"key": {"seed": 1}})
        b = registry.put(_fitted_model(), training={"key": {"seed": 2}})
        assert a.model_id != b.model_id

    def test_unfitted_model_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.put(RidgeRegression())

    def test_put_self_heals_truncated_blob(self, registry):
        record = registry.put(_fitted_model())
        blob = registry.model_path(record.model_id)
        blob.write_bytes(b"truncated")
        registry.put(_fitted_model())
        assert RidgeRegression.load(blob).is_fitted


class TestRoundTrip:
    def test_get_restores_predictions(self, registry):
        model = _fitted_model()
        record = registry.put(model)
        loaded = registry.get(record.model_id)
        X = np.random.default_rng(3).normal(size=(5, 30))
        assert np.array_equal(loaded.predict(X), model.predict(X))

    def test_record_round_trips_metadata(self, registry):
        record = registry.put(
            _fitted_model(),
            training={"key": {"seed": 5}, "lambda": 2.5},
            metrics={"validation_nrmse": 0.42},
            provenance={"commit": "abc"},
        )
        loaded = registry.record(record.model_id)
        assert loaded.training["lambda"] == 2.5
        assert loaded.metrics["validation_nrmse"] == 0.42
        assert loaded.provenance["commit"] == "abc"

    def test_record_json_round_trip(self):
        record = ModelRecord(
            model_id="abc",
            created="2026-01-01T00:00:00+0000",
            feature_schema=feature_schema(),
            schema_hash=schema_hash(),
            training={"key": {"seed": 1}},
        )
        restored = ModelRecord.from_json(record.to_json())
        assert restored.model_id == record.model_id
        assert restored.training == record.training


class TestTags:
    def test_promote_and_resolve(self, registry):
        record = registry.put(_fitted_model())
        registry.promote(record.model_id)
        assert registry.resolve(DEFAULT_TAG) == record.model_id
        assert DEFAULT_TAG in registry.record(record.model_id).tags

    def test_promote_retargets(self, registry):
        a = registry.put(_fitted_model(seed=0))
        b = registry.put(_fitted_model(seed=1))
        registry.promote(a.model_id)
        registry.promote(b.model_id)
        assert registry.resolve(DEFAULT_TAG) == b.model_id
        assert registry.record(a.model_id).tags == []

    def test_invalid_tag_rejected(self, registry):
        record = registry.put(_fitted_model())
        with pytest.raises(ValueError):
            registry.promote(record.model_id, tag="a/b")

    def test_unique_prefix_resolves(self, registry):
        record = registry.put(_fitted_model())
        assert registry.resolve(record.model_id[:6]) == record.model_id

    def test_unknown_ref_raises(self, registry):
        with pytest.raises(KeyError):
            registry.resolve("nonexistent")

    @pytest.mark.parametrize("kind", ["outside-dir", "overlong"])
    def test_ref_is_never_a_path(self, registry, tmp_path, kind):
        """Served documents carry references from clients: a reference
        naming a model directory outside the registry, or one too long
        for a file name, is an unknown reference, not a path."""
        registry.put(_fitted_model())
        outside = tmp_path / "outside"
        outside.mkdir()
        (outside / "meta.json").write_text("{}")
        ref = str(outside) if kind == "outside-dir" else "a" * 300
        with pytest.raises(KeyError, match="unknown model reference"):
            registry.resolve(ref)

    def test_ambiguous_prefix_raises(self, registry):
        a = registry.put(_fitted_model(seed=0))
        b = registry.put(_fitted_model(seed=1))
        common = ""  # the empty prefix matches both
        del a, b
        with pytest.raises(KeyError):
            registry.resolve(common)

    def test_a_known_full_id_is_not_looked_up_again(
        self, registry, monkeypatch
    ):
        """A re-put derives the full id it returns the record of, and a
        promote has resolved its reference once: neither lists the
        object directories (again) to build that record, which a
        registry growing by one refit model per retrain job makes
        slower with every model."""
        records = [
            registry.put(_fitted_model(seed=seed), training={"key": seed})
            for seed in range(5)
        ]
        registry.promote(records[1].model_id, "candidate")
        scans = []
        iter_dirs = ModelRegistry._iter_object_dirs
        monkeypatch.setattr(
            ModelRegistry,
            "_iter_object_dirs",
            lambda self: scans.append(1) or iter_dirs(self),
        )
        reput = registry.put(_fitted_model(seed=1), training={"key": 1})
        assert len(scans) == 0
        promoted = registry.promote(records[3].model_id)
        assert len(scans) == 1
        assert reput == registry.record(records[1].model_id)
        assert promoted == registry.record(records[3].model_id)
        assert (reput.tags, promoted.tags) == (["candidate"], [DEFAULT_TAG])


class TestFindByKey:
    def test_find_by_key_matches(self, registry):
        record = registry.put(
            _fitted_model(), training={"key": {"seed": 7, "quick": True}}
        )
        hit = registry.find_by_key({"seed": 7, "quick": True})
        assert hit is not None
        assert hit.model_id == record.model_id

    def test_find_by_key_misses(self, registry):
        registry.put(_fitted_model(), training={"key": {"seed": 7}})
        assert registry.find_by_key({"seed": 8}) is None

    def test_schema_filter_rejects_stale_schema(self, registry):
        record = registry.put(_fitted_model(), training={"key": {"seed": 7}})
        meta_path = registry.root / "objects" / record.model_id / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["schema_hash"] = "0" * 64
        meta_path.write_text(json.dumps(meta))
        assert registry.find_by_key({"seed": 7}) is not None
        assert (
            registry.find_by_key({"seed": 7}, with_schema_hash=schema_hash())
            is None
        )


    def test_lookup_reads_each_record_once(self, registry, monkeypatch):
        """A lookup is one pass over the stored records: a registry
        grows by one refit model per retrain job, and resolving every
        listed id again made each lookup quadratic in its size."""
        records = [
            registry.put(_fitted_model(seed=seed), training={"key": seed})
            for seed in range(6)
        ]
        registry.promote(records[2].model_id)
        reads = []
        read_tags = ModelRegistry._read_tags

        def counting_read_tags(self):
            reads.append(1)
            return read_tags(self)

        monkeypatch.setattr(ModelRegistry, "_read_tags", counting_read_tags)
        monkeypatch.setattr(
            ModelRegistry,
            "resolve",
            lambda self, ref: pytest.fail("list() resolved an id"),
        )
        hit = registry.find_by_key(2)
        assert hit.model_id == records[2].model_id
        assert hit.tags == ["production"]
        assert registry.find_by_key(99) is None
        assert len(reads) == 2


class TestDefaultRoot:
    def test_registry_dir_env_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PEARL_REGISTRY_DIR", str(tmp_path / "explicit"))
        monkeypatch.setenv("PEARL_CACHE_DIR", str(tmp_path / "cache"))
        assert default_registry().root == tmp_path / "explicit"

    def test_cache_dir_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PEARL_REGISTRY_DIR", raising=False)
        monkeypatch.setenv("PEARL_CACHE_DIR", str(tmp_path / "cache"))
        assert default_registry().root == tmp_path / "cache" / "registry"

    def test_bare_default(self, monkeypatch):
        monkeypatch.delenv("PEARL_REGISTRY_DIR", raising=False)
        monkeypatch.delenv("PEARL_CACHE_DIR", raising=False)
        assert default_registry().root.name == ".pearl_model_registry"
