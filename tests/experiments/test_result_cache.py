"""The persistent result cache: hits, invalidation and corruption.

Covers the three behaviours the cache promises:

* a hit reproduces the computed result bit-for-bit;
* changing any content input — a config field, the trace seed, the
  code-version salt — misses instead of returning stale numbers;
* corrupted or truncated entries are evicted and recomputed, never
  crashed on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time

import pytest

from repro.config import (
    PearlConfig,
    PowerScalingConfig,
    SimulationConfig,
)
from repro.experiments.cache import (
    CODE_VERSION,
    ResultCache,
    canonical_json,
    job_key,
)
from repro.experiments.parallel import (
    ExperimentEngine,
    JobSpec,
    execute_job,
    pair_spec,
    pearl_job,
    trace_job,
)
from repro.experiments.runner import experiment_pairs


@pytest.fixture
def tiny_sim_config() -> PearlConfig:
    return PearlConfig(
        simulation=SimulationConfig(warmup_cycles=100, measure_cycles=1_000),
        power_scaling=PowerScalingConfig(reservation_window=200),
    )


@pytest.fixture
def spec(tiny_sim_config):
    pair = experiment_pairs(quick=True)[0]
    return pearl_job(tiny_sim_config, pair_spec(pair, 3), seed=3)


def _fingerprint(result):
    return (
        result.kind,
        result.stats.to_dict() if result.stats is not None else None,
        dict(result.state_residency),
        result.mean_laser_power_w,
        result.laser_stall_cycles,
        list(result.ml_predictions),
        list(result.ml_labels),
        dict(result.extras),
    )


class TestHits:
    def test_roundtrip_is_bit_identical(self, tmp_path, spec):
        cache = ResultCache(directory=tmp_path)
        computed = execute_job(spec)
        cache.put(spec, computed)
        hit = cache.get(spec)
        assert hit is not None
        assert _fingerprint(hit) == _fingerprint(computed)
        assert cache.hits == 1 and cache.errors == 0

    def test_trace_job_roundtrip(self, tmp_path, tiny_sim_config):
        """Stats-free results (trace jobs) also round-trip."""
        pair = experiment_pairs(quick=True)[0]
        spec = trace_job(tiny_sim_config, pair_spec(pair, 3))
        cache = ResultCache(directory=tmp_path)
        computed = execute_job(spec)
        cache.put(spec, computed)
        hit = cache.get(spec)
        assert hit is not None
        assert hit.stats is None
        assert hit.extras == computed.extras

    def test_empty_cache_misses(self, tmp_path, spec):
        cache = ResultCache(directory=tmp_path)
        assert cache.get(spec) is None
        assert cache.misses == 1


class TestInvalidation:
    def test_config_field_change_misses(self, tmp_path, spec, tiny_sim_config):
        cache = ResultCache(directory=tmp_path)
        cache.put(spec, execute_job(spec))
        changed_config = dataclasses.replace(
            tiny_sim_config,
            power_scaling=PowerScalingConfig(reservation_window=400),
        )
        changed = dataclasses.replace(spec, config=changed_config)
        assert cache.get(changed) is None

    def test_trace_seed_change_misses(self, tmp_path, spec):
        cache = ResultCache(directory=tmp_path)
        cache.put(spec, execute_job(spec))
        changed = dataclasses.replace(
            spec, trace=dataclasses.replace(spec.trace, seed=99)
        )
        assert cache.get(changed) is None

    def test_salt_change_misses(self, tmp_path, spec):
        cache = ResultCache(directory=tmp_path)
        cache.put(spec, execute_job(spec))
        bumped = ResultCache(directory=tmp_path, salt=CODE_VERSION + "-next")
        assert bumped.get(spec) is None

    def test_key_is_stable_across_processes(self, spec):
        """Keys depend only on content, not object identity."""
        assert job_key(spec.payload()) == job_key(spec.payload())
        assert ResultCache().key_for(spec) == ResultCache().key_for(spec)

    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def _rewrite_commit(meta_path, edit) -> None:
    """Apply ``edit`` to an entry's commit record (the meta's first
    line), keeping the spec line after it."""
    commit, rest = meta_path.read_text().split("\n", 1)
    record = json.loads(commit)
    edit(record)
    meta_path.write_text(json.dumps(record) + "\n" + rest)


class TestCorruption:
    def _primed(self, tmp_path, spec):
        cache = ResultCache(directory=tmp_path)
        cache.put(spec, execute_job(spec))
        json_path = tmp_path / f"{cache.key_for(spec)}.json"
        npz_path = tmp_path / f"{cache.key_for(spec)}.npz"
        assert json_path.exists() and npz_path.exists()
        return cache, json_path, npz_path

    def test_corrupted_json_recomputed(self, tmp_path, spec):
        cache, json_path, npz_path = self._primed(tmp_path, spec)
        json_path.write_text("{ not json at all")
        assert cache.get(spec) is None
        assert cache.errors == 1
        # The bad entry was evicted, so the slot is clean for a re-put.
        assert not json_path.exists()
        cache.put(spec, execute_job(spec))
        assert cache.get(spec) is not None

    def test_truncated_npz_recomputed(self, tmp_path, spec):
        cache, json_path, npz_path = self._primed(tmp_path, spec)
        npz_path.write_bytes(npz_path.read_bytes()[:10])
        assert cache.get(spec) is None
        assert cache.errors == 1

    def test_missing_npz_recomputed(self, tmp_path, spec):
        cache, json_path, npz_path = self._primed(tmp_path, spec)
        npz_path.unlink()
        assert cache.get(spec) is None

    def test_unknown_entry_format_recomputed(self, tmp_path, spec):
        cache, json_path, npz_path = self._primed(tmp_path, spec)
        json_path.write_text('{"format": 999}\n')
        assert cache.get(spec) is None
        assert cache.errors == 1

    def test_undecodable_document_recomputed(self, tmp_path, spec):
        """Digest-true bytes that are no result document: one miss,
        counted once, and the entry is evicted."""
        cache, json_path, npz_path = self._primed(tmp_path, spec)
        blob = b'{"format": "not a result document"}'
        npz_path.write_bytes(blob)
        _rewrite_commit(
            json_path,
            lambda record: record.update(
                blob_sha256=hashlib.sha256(blob).hexdigest()
            ),
        )
        assert cache.get(spec) is None
        assert (cache.hits, cache.misses, cache.errors) == (0, 1, 1)
        assert not json_path.exists()


class TestTornPairDetection:
    """Entries bind meta to blob by digest (torn pairs heal)."""

    def test_mismatched_blob_is_evicted_not_decoded(
        self, tmp_path, tiny_sim_config
    ):
        """A meta/blob pair mixed from two writers reads as a miss."""
        import io

        import numpy as np

        pair = experiment_pairs(quick=True)[0]
        spec = trace_job(tiny_sim_config, pair_spec(pair, 1), seed=1)
        cache = ResultCache(directory=tmp_path)
        cache.put(spec, execute_job(spec))
        key = cache.key_for(spec)
        # Interleave: the committed meta now sits over a *different but
        # perfectly decodable* blob — the torn-pair shape a crash
        # between two racing writers leaves behind.  Only the digest in
        # the meta document can catch this.
        buffer = io.BytesIO()
        np.savez_compressed(
            buffer,
            latencies=np.array([1, 2, 3], dtype=np.int64),
            ml_predictions=np.array([], dtype=np.float64),
            ml_labels=np.array([], dtype=np.float64),
        )
        (tmp_path / f"{key}.npz").write_bytes(buffer.getvalue())
        assert cache.get(spec) is None
        assert cache.errors == 1
        assert not (tmp_path / f"{key}.json").exists()  # self-healed
        cache.put(spec, execute_job(spec))
        assert cache.get(spec) is not None

    def test_pre_digest_entries_self_heal(self, tmp_path, tiny_sim_config):
        """Format-1 entries (no digest) are evicted, not trusted."""
        pair = experiment_pairs(quick=True)[0]
        spec = trace_job(tiny_sim_config, pair_spec(pair, 1), seed=1)
        cache = ResultCache(directory=tmp_path)
        cache.put(spec, execute_job(spec))
        key = cache.key_for(spec)
        meta_path = tmp_path / f"{key}.json"

        def format1(record):
            record["format"] = 1
            record.pop("blob_sha256")

        _rewrite_commit(meta_path, format1)
        assert cache.get(spec) is None
        assert cache.errors == 1
        cache.put(spec, execute_job(spec))
        assert cache.get(spec) is not None


def _hammer_cache(backend_spec, spec, result, rounds, failures):
    """One concurrent writer+reader process (top-level: picklable)."""
    try:
        cache = ResultCache(store=backend_spec)
        for _ in range(rounds):
            cache.put(spec, result)
            hit = cache.get(spec)
            if hit is not None and hit.extras != result.extras:
                failures.put("decoded entry does not match what was written")
        if cache.errors:
            failures.put(f"reader saw {cache.errors} corrupt entries")
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        failures.put(repr(exc))


class TestConcurrentWriters:
    """Racing same-key writers across real processes never tear entries."""

    @pytest.mark.parametrize("backend", ["dir", "sqlite"])
    def test_cross_process_same_key_writers(
        self, tmp_path, tiny_sim_config, backend
    ):
        import multiprocessing

        if backend == "dir":
            backend_spec = f"dir:{tmp_path / 'cache'}"
        else:
            backend_spec = f"sqlite:{tmp_path / 'cache.db'}"
        pair = experiment_pairs(quick=True)[0]
        spec = trace_job(tiny_sim_config, pair_spec(pair, 1), seed=1)
        result = execute_job(spec)

        ctx = multiprocessing.get_context("fork")
        failures = ctx.Queue()
        workers = [
            ctx.Process(
                target=_hammer_cache,
                args=(backend_spec, spec, result, 25, failures),
            )
            for _ in range(4)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        assert failures.empty(), failures.get()

        # After the storm: exactly one committed, decodable entry.
        survivor = ResultCache(store=backend_spec)
        hit = survivor.get(spec)
        assert hit is not None
        assert hit.extras == result.extras
        assert survivor.errors == 0
        assert survivor.stats().entries == 1
        if backend == "dir":
            assert not list((tmp_path / "cache").glob("*.tmp"))


class TestPrune:
    def _filled(self, tmp_path, tiny_sim_config, count=3):
        cache = ResultCache(directory=tmp_path)
        pair = experiment_pairs(quick=True)[0]
        specs = [
            trace_job(tiny_sim_config, pair_spec(pair, seed), seed=seed)
            for seed in range(1, count + 1)
        ]
        for spec in specs:
            cache.put(spec, execute_job(spec))
        return cache, specs

    def test_prune_by_age(self, tmp_path, tiny_sim_config):
        cache, _ = self._filled(tmp_path, tiny_sim_config)
        removed, removed_bytes = cache.prune(
            older_than=5.0, now=time.time() + 60
        )
        assert removed == 3
        assert removed_bytes > 0
        assert cache.stats().entries == 0

    def test_prune_keeps_young_entries(self, tmp_path, tiny_sim_config):
        cache, specs = self._filled(tmp_path, tiny_sim_config)
        removed, _ = cache.prune(older_than=3600.0)
        assert removed == 0
        assert cache.get(specs[0]) is not None

    def test_prune_to_size_budget_evicts_oldest_first(
        self, tmp_path, tiny_sim_config
    ):
        import os as _os

        cache, specs = self._filled(tmp_path, tiny_sim_config)
        oldest = cache.key_for(specs[0])
        past = time.time() - 1000
        for suffix in (".json", ".npz"):
            _os.utime(tmp_path / f"{oldest}{suffix}", (past, past))
        total = cache.stats().total_bytes
        removed, _ = cache.prune(max_bytes=total - 1)
        assert removed == 1
        assert cache.get(specs[0]) is None  # the back-dated entry went
        assert cache.get(specs[1]) is not None

    def test_prune_everything(self, tmp_path, tiny_sim_config):
        cache, specs = self._filled(tmp_path, tiny_sim_config)
        removed, _ = cache.prune(max_bytes=0)
        assert removed == 3
        assert all(cache.get(spec) is None for spec in specs)


class TestSqliteBackend:
    def test_roundtrip_is_bit_identical(self, tmp_path, spec):
        cache = ResultCache(store=f"sqlite:{tmp_path / 'c.db'}")
        computed = execute_job(spec)
        cache.put(spec, computed)
        hit = cache.get(spec)
        assert hit is not None
        assert _fingerprint(hit) == _fingerprint(computed)

    def test_env_var_selects_backend(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "PEARL_RESULT_CACHE_BACKEND", f"sqlite:{tmp_path / 'env.db'}"
        )
        cache = ResultCache()
        assert cache.store.backend == "sqlite"
        assert cache.directory == tmp_path / "env.db"


class TestEngineIntegration:
    def test_warm_rerun_identical_and_10x_faster(
        self, tmp_path, tiny_sim_config
    ):
        """Acceptance: a warm-cache rerun is >= 10x faster than cold."""
        pairs = experiment_pairs(quick=True)
        specs = [
            pearl_job(tiny_sim_config, pair_spec(pair, 1 + i), seed=1 + i)
            for i, pair in enumerate(pairs)
        ]

        cold_engine = ExperimentEngine(
            jobs=1, cache=ResultCache(directory=tmp_path)
        )
        start = time.perf_counter()
        cold = cold_engine.run(specs)
        cold_seconds = time.perf_counter() - start
        assert cold_engine.cache.hits == 0

        warm_engine = ExperimentEngine(
            jobs=1, cache=ResultCache(directory=tmp_path)
        )
        start = time.perf_counter()
        warm = warm_engine.run(specs)
        warm_seconds = time.perf_counter() - start
        assert warm_engine.cache.hits == len(specs)

        for a, b in zip(cold, warm):
            assert _fingerprint(a) == _fingerprint(b)
        assert warm_seconds * 10 <= cold_seconds, (
            f"warm rerun took {warm_seconds:.3f}s vs cold "
            f"{cold_seconds:.3f}s — expected >= 10x speedup"
        )

    def test_partial_cache_computes_only_missing(
        self, tmp_path, tiny_sim_config
    ):
        pairs = experiment_pairs(quick=True)[:2]
        specs = [
            pearl_job(tiny_sim_config, pair_spec(pair, 1 + i), seed=1 + i)
            for i, pair in enumerate(pairs)
        ]
        cache = ResultCache(directory=tmp_path)
        cache.put(specs[0], execute_job(specs[0]))
        engine = ExperimentEngine(jobs=1, cache=cache)
        results = engine.run(specs)
        assert len(results) == 2
        assert cache.hits == 1
        # The fresh job was persisted: a second engine hits both.
        second = ExperimentEngine(
            jobs=1, cache=ResultCache(directory=tmp_path)
        )
        second.run(specs)
        assert second.cache.hits == 2

    def test_payload_is_computed_once_per_job(
        self, tmp_path, spec, monkeypatch
    ):
        """A miss keys, runs and stores its job with one ``payload()``
        (an ML job's payload hashes its model file), and a hit keys it
        with one; the entry is byte for byte the one ``put`` writes."""
        calls = []
        payload = JobSpec.payload
        monkeypatch.setattr(
            JobSpec, "payload", lambda job: calls.append(job) or payload(job)
        )
        engine = ExperimentEngine(
            jobs=1, cache=ResultCache(directory=tmp_path / "engine")
        )
        (cold,) = engine.run([spec])
        assert len(calls) == 1
        engine.run([spec])
        assert len(calls) == 2
        assert (engine.cache.hits, engine.cache.misses) == (1, 1)

        direct = ResultCache(directory=tmp_path / "put")
        direct.put(spec, cold)
        key = direct.key_for(spec)
        assert engine.cache.store.get(key) == direct.store.get(key)

    def test_a_failed_batch_keeps_the_jobs_it_finished(
        self, tmp_path, tiny_sim_config, monkeypatch
    ):
        """Each job is stored as it completes: a serial batch whose
        third job raises leaves the first two in the cache."""
        from repro.experiments import parallel

        specs = [
            trace_job(tiny_sim_config, pair_spec(pair, 1 + i), seed=1 + i)
            for i, pair in enumerate(experiment_pairs(quick=True)[:3])
        ]
        ran = []

        def third_fails(spec):
            ran.append(spec)
            if len(ran) == 3:
                raise RuntimeError("job died")
            return execute_job(spec)

        monkeypatch.setattr(parallel, "execute_job", third_fails)
        cache = ResultCache(directory=tmp_path)
        with pytest.raises(RuntimeError, match="job died"):
            ExperimentEngine(jobs=1, cache=cache).run(specs)
        assert [cache.get(spec) is not None for spec in specs] == [
            True,
            True,
            False,
        ]
