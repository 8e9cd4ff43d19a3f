"""Shard manifests and the resumable sweep runner.

The load-bearing promises:

* partitioning is deterministic and content-keyed, so resume can verify
  it is being fed the *same* sweep;
* a resumed sweep re-executes **zero** jobs from ``done`` shards;
* a failed shard is isolated — later shards still run — and retried on
  the next resume;
* a ``done`` shard whose cache entries vanished is demoted and re-run
  instead of silently returning holes.
"""

from __future__ import annotations

import json

import pytest

from repro.config import PearlConfig, PowerScalingConfig, SimulationConfig
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import (
    JobSpec,
    pair_spec,
    pearl_job,
    trace_job,
)
from repro.experiments.runner import experiment_pairs
from repro.experiments.service.manifest import (
    MANIFEST_FORMAT,
    Shard,
    ShardStatus,
    SweepManifest,
    partition_specs,
    sweep_key,
)
from repro.experiments.service.sweeper import SweepRunner


@pytest.fixture
def tiny_sim_config() -> PearlConfig:
    return PearlConfig(
        simulation=SimulationConfig(warmup_cycles=100, measure_cycles=1_000),
        power_scaling=PowerScalingConfig(reservation_window=200),
    )


@pytest.fixture
def specs(tiny_sim_config):
    """Seven cheap trace-statistics jobs (no network simulation)."""
    pair = experiment_pairs(quick=True)[0]
    return [
        trace_job(tiny_sim_config, pair_spec(pair, seed), seed=seed)
        for seed in range(1, 8)
    ]


@pytest.fixture
def cache(tmp_path):
    return ResultCache(directory=tmp_path / "cache")


class TestPartitioning:
    def test_contiguous_and_deterministic(self):
        keys = [f"{i:02d}" * 32 for i in range(7)]
        shards = partition_specs(keys, shard_size=3)
        assert [s.indices for s in shards] == [[0, 1, 2], [3, 4, 5], [6]]
        again = partition_specs(keys, shard_size=3)
        assert [s.shard_id for s in shards] == [s.shard_id for s in again]

    def test_shard_id_tracks_membership(self):
        keys = [f"{i:02d}" * 32 for i in range(4)]
        a = partition_specs(keys, shard_size=2)
        b = partition_specs(list(reversed(keys)), shard_size=2)
        assert {s.shard_id for s in a}.isdisjoint({s.shard_id for s in b})

    def test_sweep_key_is_order_sensitive(self):
        keys = ["a" * 64, "b" * 64]
        assert sweep_key(keys) != sweep_key(list(reversed(keys)))

    def test_bad_shard_size_rejected(self):
        with pytest.raises(ValueError, match="shard_size"):
            partition_specs(["a" * 64], shard_size=0)


class TestManifestPersistence:
    KEYS = [f"{i:02d}" * 32 for i in range(5)]

    def test_create_load_roundtrip(self, tmp_path):
        manifest = SweepManifest.create(
            tmp_path, self.KEYS, shard_size=2, salt="s1"
        )
        loaded = SweepManifest.load(tmp_path)
        assert loaded.sweep_id == manifest.sweep_id
        assert loaded.salt == "s1"
        assert [s.to_dict() for s in loaded.shards] == [
            s.to_dict() for s in manifest.shards
        ]

    def test_transitions_checkpoint_immediately(self, tmp_path):
        manifest = SweepManifest.create(
            tmp_path, self.KEYS, shard_size=2, salt="s1"
        )
        shard = manifest.shards[0]
        manifest.mark_running(shard)
        manifest.mark_done(shard)
        on_disk = SweepManifest.load(tmp_path)
        assert on_disk.shards[0].status == ShardStatus.DONE
        assert on_disk.shards[0].attempts == 1
        assert on_disk.shards[0].worker

        manifest.mark_failed(manifest.shards[1], "boom" * 500)
        on_disk = SweepManifest.load(tmp_path)
        assert on_disk.shards[1].status == ShardStatus.FAILED
        assert len(on_disk.shards[1].error) <= 500

        manifest.reset_shard(shard)
        assert SweepManifest.load(tmp_path).shards[0].status == (
            ShardStatus.PENDING
        )

    def test_unknown_format_rejected(self, tmp_path):
        manifest = SweepManifest.create(
            tmp_path, self.KEYS, shard_size=2, salt="s1"
        )
        doc = json.loads(manifest.path.read_text())
        doc["format"] = MANIFEST_FORMAT + 1
        manifest.path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="manifest format"):
            SweepManifest.load(tmp_path)

    def test_validate_specs_rejects_different_sweep(self, tmp_path):
        manifest = SweepManifest.create(
            tmp_path, self.KEYS, shard_size=2, salt="s1"
        )
        with pytest.raises(ValueError, match="sweep mismatch"):
            manifest.validate_specs(list(reversed(self.KEYS)))

    def test_counts(self, tmp_path):
        manifest = SweepManifest.create(
            tmp_path, self.KEYS, shard_size=2, salt="s1"
        )
        manifest.mark_done(manifest.shards[0])
        manifest.mark_failed(manifest.shards[1], "x")
        assert manifest.counts() == {"pending": 1, "done": 1, "failed": 1}


def _fingerprint(result):
    return (result.kind, dict(result.extras))


class TestSweepRunner:
    def test_cold_run_fills_every_slot(self, specs, cache, tmp_path):
        runner = SweepRunner(cache, jobs=1, shard_size=3)
        results, report = runner.run(specs, tmp_path / "m")
        assert all(r is not None for r in results)
        assert not report.resumed
        assert report.shards_total == 3
        assert report.shards_executed == 3
        assert report.jobs_executed == len(specs)
        counts = SweepManifest.load(tmp_path / "m").counts()
        assert counts == {"pending": 0, "done": 3, "failed": 0}

    def test_resume_executes_zero_jobs(self, specs, cache, tmp_path):
        runner = SweepRunner(cache, jobs=1, shard_size=3)
        cold, _ = runner.run(specs, tmp_path / "m")
        resumed, report = runner.run(specs, tmp_path / "m", resume=True)
        assert report.resumed
        assert report.jobs_executed == 0
        assert report.shards_executed == 0
        assert report.shards_skipped == 3
        assert [_fingerprint(r) for r in resumed] == [
            _fingerprint(r) for r in cold
        ]

    def test_resume_without_manifest_is_loud(self, specs, cache, tmp_path):
        runner = SweepRunner(cache, jobs=1, shard_size=3)
        with pytest.raises(FileNotFoundError, match="--resume"):
            runner.run(specs, tmp_path / "m", resume=True)

    def test_resume_with_different_specs_is_loud(
        self, specs, cache, tmp_path
    ):
        runner = SweepRunner(cache, jobs=1, shard_size=3)
        runner.run(specs, tmp_path / "m")
        with pytest.raises(ValueError, match="sweep mismatch"):
            runner.run(list(reversed(specs)), tmp_path / "m", resume=True)

    def test_failed_shard_is_isolated_then_retried(
        self, specs, cache, tmp_path, tiny_sim_config
    ):
        """One poison job fails its shard; other shards run; resume heals."""
        pair = experiment_pairs(quick=True)[0]
        # A valid spec whose model file is corrupt: it fails in the worker.
        model = tmp_path / "corrupt-model.npz"
        model.write_bytes(b"not a model")
        poison = pearl_job(
            tiny_sim_config, pair_spec(pair, 99), seed=99, ml_model_path=model
        )
        mixed = specs[:3] + [poison] + specs[3:6]
        runner = SweepRunner(cache, jobs=1, shard_size=3)
        results, report = runner.run(mixed, tmp_path / "m")
        assert report.shards_failed == 1
        assert report.shards_executed == 2
        # The poison shard's slots are None; healthy shards completed.
        assert results[3] is None and results[4] is None and results[5] is None
        assert all(r is not None for r in results[:3] + results[6:])

        # Resume with the poison replaced by a healthy job of the same
        # sweep?  No — that is a different sweep.  Retry the same sweep:
        # the failed shard re-runs (and fails again), done shards skip.
        _, retry = runner.run(mixed, tmp_path / "m", resume=True)
        assert retry.shards_skipped == 2
        assert retry.shards_failed == 1

    def test_done_shard_with_lost_cache_entries_reruns(
        self, specs, cache, tmp_path
    ):
        runner = SweepRunner(cache, jobs=1, shard_size=3)
        cold, _ = runner.run(specs, tmp_path / "m")
        # Simulate a pruned/corrupted cache: drop one member of shard 0.
        cache.store.delete(cache.key_for(specs[1]))
        resumed, report = runner.run(specs, tmp_path / "m", resume=True)
        assert report.shards_skipped == 2
        assert report.shards_executed == 1
        assert all(r is not None for r in resumed)
        assert [_fingerprint(r) for r in resumed] == [
            _fingerprint(r) for r in cold
        ]
        counts = SweepManifest.load(tmp_path / "m").counts()
        assert counts["done"] == 3

    def test_each_job_is_keyed_once(
        self, specs, cache, tmp_path, monkeypatch
    ):
        """A sweep computes each job's payload once, cold and on
        resume: the manifest, the engine and the restore of done shards
        share the keys."""
        calls = []
        payload = JobSpec.payload
        monkeypatch.setattr(
            JobSpec, "payload", lambda job: calls.append(job) or payload(job)
        )
        sweep = specs[:4]
        runner = SweepRunner(cache, jobs=1, shard_size=2)
        _, cold = runner.run(sweep, tmp_path / "m")
        assert (cold.jobs_executed, len(calls)) == (4, 4)
        _, resumed = runner.run(sweep, tmp_path / "m", resume=True)
        assert (resumed.shards_skipped, len(calls)) == (2, 8)

    def test_serial_equals_sharded(self, specs, cache, tmp_path):
        """Sharded execution is bit-identical to direct serial runs."""
        from repro.experiments.parallel import execute_job

        direct = [execute_job(spec) for spec in specs]
        results, _ = SweepRunner(cache, jobs=1, shard_size=2).run(
            specs, tmp_path / "m"
        )
        assert [_fingerprint(r) for r in results] == [
            _fingerprint(r) for r in direct
        ]


class TestShardRoundtrip:
    def test_shard_dict_roundtrip(self):
        shard = Shard(
            shard_id="a" * 64,
            indices=[0, 1],
            spec_keys=["b" * 64, "c" * 64],
            status=ShardStatus.FAILED,
            attempts=2,
            error="err",
            completed_at=None,
            worker="u@h:1",
        )
        assert Shard.from_dict(shard.to_dict()) == shard
