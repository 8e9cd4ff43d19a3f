"""Shard executor: run a sweep against a manifest and a shared cache.

:class:`SweepRunner` drives a sweep shard by shard:

* **cold** — partition the specs, checkpoint the manifest, execute
  every shard through the parallel engine, persist each job into the
  shared content-addressed cache, mark the shard ``done`` and
  checkpoint after each commit;
* **resume** — load the manifest, validate the provided specs hash to
  the recorded sweep, read ``done`` shards straight out of the cache
  (zero re-execution) and run only ``pending``/``failed`` shards.

A ``done`` shard whose cache entries were pruned or corrupted in the
meantime is demoted back to ``pending`` and re-executed — the manifest
is a progress index, the cache is the source of truth.

Telemetry: each shard's job telemetry merges under a
``shard<NN>/job<i>`` stream tag, and the runner counts
``service/shards_*`` / ``service/jobs_*`` so an instrumented sweep
reports exactly how much work resume skipped.  :meth:`SweepRunner.run`
returns the results in submission order plus a :class:`SweepReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ...obs import OBS
from ..cache import ResultCache
from ..parallel import ExperimentEngine, JobResult, JobSpec
from .manifest import Shard, ShardStatus, SweepManifest, worker_identity
from .spec_codec import result_from_bytes


@dataclass
class SweepReport:
    """What one :meth:`SweepRunner.run` call actually did."""

    sweep_id: str
    manifest_path: str
    resumed: bool
    worker: str = field(default_factory=worker_identity)
    shards_total: int = 0
    shards_skipped: int = 0
    shards_executed: int = 0
    shards_failed: int = 0
    jobs_total: int = 0
    jobs_executed: int = 0
    cache_hits: int = 0
    wall_seconds: float = 0.0
    failures: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "sweep_id": self.sweep_id,
            "manifest_path": self.manifest_path,
            "resumed": self.resumed,
            "worker": self.worker,
            "shards_total": self.shards_total,
            "shards_skipped": self.shards_skipped,
            "shards_executed": self.shards_executed,
            "shards_failed": self.shards_failed,
            "jobs_total": self.jobs_total,
            "jobs_executed": self.jobs_executed,
            "cache_hits": self.cache_hits,
            "wall_seconds": self.wall_seconds,
            "failures": self.failures,
        }


class SweepRunner:
    """Resumable sharded execution of a JobSpec sweep."""

    def __init__(
        self,
        cache: ResultCache,
        jobs: int = 1,
        shard_size: int = 8,
    ) -> None:
        if shard_size < 1:
            raise ValueError("shard_size must be at least 1")
        self.cache = cache
        self.jobs = jobs
        self.shard_size = shard_size

    # -- manifest wiring ------------------------------------------------------

    def _manifest_for(
        self,
        directory: Path,
        spec_keys: Sequence[str],
        resume: bool,
    ) -> "tuple[SweepManifest, bool]":
        if resume:
            if not SweepManifest.exists(directory):
                raise FileNotFoundError(
                    f"--resume: no manifest at {directory / 'manifest.json'}"
                )
            manifest = SweepManifest.load(directory)
            manifest.validate_specs(spec_keys)
            return manifest, True
        manifest = SweepManifest.create(
            directory, spec_keys, self.shard_size, salt=self.cache.salt
        )
        return manifest, False

    # -- execution ------------------------------------------------------------

    def run(
        self,
        specs: Sequence[JobSpec],
        directory: Union[str, Path],
        resume: bool = False,
    ) -> "tuple[List[Optional[JobResult]], SweepReport]":
        """Execute (or resume) a sweep; results come back in spec order.

        A shard that raises is marked ``failed`` in the manifest (its
        slots come back ``None``) and the remaining shards still run —
        one bad configuration cannot strand a thousand good ones.
        """
        specs = list(specs)
        # (key, payload) of every job, computed once: the manifest, the
        # restore of done shards and the engine all reuse it.
        keyed = [self.cache.key_for(spec, with_payload=True) for spec in specs]
        manifest, resumed = self._manifest_for(
            Path(directory), [key for key, _ in keyed], resume
        )
        report = SweepReport(
            sweep_id=manifest.sweep_id,
            manifest_path=str(manifest.path),
            resumed=resumed,
            shards_total=len(manifest.shards),
            jobs_total=len(specs),
        )
        results: List[Optional[JobResult]] = [None] * len(specs)
        start = time.perf_counter()

        for number, shard in enumerate(manifest.shards):
            if shard.status == ShardStatus.DONE:
                if self._restore_done_shard(shard, keyed, results):
                    report.shards_skipped += 1
                    report.cache_hits += len(shard.indices)
                    self._count("shards_skipped")
                    continue
                # Cache lost entries since the shard committed: the
                # manifest demotes it and the shard re-runs below.
                manifest.reset_shard(shard)
            self._execute_shard(
                number, shard, manifest, specs, keyed, results, report
            )

        report.wall_seconds = time.perf_counter() - start
        return results, report

    def _restore_done_shard(
        self,
        shard: Shard,
        keyed: Sequence["tuple[str, dict]"],
        results: List[Optional[JobResult]],
    ) -> bool:
        """Fill a done shard's slots from the cache; False when torn."""
        restored: List["tuple[int, JobResult]"] = []
        for index in shard.indices:
            hit = self.cache.get_by_key(
                keyed[index][0], decode=result_from_bytes
            )
            if hit is None:
                return False
            restored.append((index, hit))
        for index, result in restored:
            results[index] = result
        return True

    def _execute_shard(
        self,
        number: int,
        shard: Shard,
        manifest: SweepManifest,
        specs: Sequence[JobSpec],
        keyed: Sequence["tuple[str, dict]"],
        results: List[Optional[JobResult]],
        report: SweepReport,
    ) -> None:
        manifest.mark_running(shard)
        engine = ExperimentEngine(
            jobs=self.jobs,
            cache=self.cache,
            stream_prefix=f"shard{number:03d}/",
        )
        hits_before = self.cache.hits
        misses_before = self.cache.misses
        try:
            shard_results = engine.run(
                [specs[i] for i in shard.indices],
                keyed=[keyed[i] for i in shard.indices],
            )
        except Exception as exc:  # noqa: BLE001 - recorded, not swallowed
            manifest.mark_failed(shard, repr(exc))
            report.shards_failed += 1
            report.failures[shard.shard_id] = repr(exc)
            self._count("shards_failed")
            return
        for index, result in zip(shard.indices, shard_results):
            results[index] = result
        executed = self.cache.misses - misses_before
        report.shards_executed += 1
        report.jobs_executed += executed
        report.cache_hits += self.cache.hits - hits_before
        manifest.mark_done(shard)
        self._count("shards_executed")
        self._count("jobs_executed", executed)

    @staticmethod
    def _count(event: str, amount: int = 1) -> None:
        if OBS.enabled and amount:
            OBS.registry.counter(
                f"service/{event}",
                help="sharded sweep service progress",
            ).inc(amount)
