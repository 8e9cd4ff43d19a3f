"""Telemetry through the parallel engine: merging, caching, determinism.

The contract under test:

* metric values are identical for ``jobs=1`` and ``jobs=4`` (merging is
  order-independent, so worker scheduling cannot change the numbers);
* worker trace events merge without ``(stream, seq)`` collisions;
* simulation *results* are byte-identical with telemetry on or off;
* cache hits/misses/writes are counted, and cached entries carry their
  job's telemetry so warm re-runs report the same simulation metrics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.config import (
    PearlConfig,
    PowerScalingConfig,
    SimulationConfig,
)
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import (
    ExperimentEngine,
    execute_job,
    pair_spec,
    pearl_job,
)
from repro.experiments.runner import experiment_pairs
from repro.noc.router import PowerPolicyKind
from repro.obs import OBS


@pytest.fixture(autouse=True)
def _telemetry_off():
    obs.disable()
    yield
    obs.disable()


@pytest.fixture
def specs():
    config = PearlConfig(
        simulation=SimulationConfig(warmup_cycles=100, measure_cycles=1_000),
        power_scaling=PowerScalingConfig(reservation_window=200),
    )
    pairs = experiment_pairs(quick=True)[:2]
    return [
        pearl_job(
            config,
            pair_spec(pair, seed),
            seed=seed,
            power_policy=PowerPolicyKind.REACTIVE,
        )
        for pair in pairs
        for seed in (1, 2)
    ]


def _run(specs, jobs, cache=None):
    with obs.session():
        results = ExperimentEngine(jobs=jobs, cache=cache).run(specs)
        return (
            OBS.registry.snapshot(include_volatile=False),
            OBS.tracer.events(include_wall=False),
            [r.mean_laser_power_w for r in results],
        )


class TestParallelMergeIdentity:
    def test_jobs1_and_jobs4_identical_metrics(self, specs):
        snap_serial, _, results_serial = _run(specs, jobs=1)
        snap_parallel, _, results_parallel = _run(specs, jobs=4)
        assert results_serial == results_parallel
        assert snap_serial == snap_parallel

    def test_simulation_metrics_present(self, specs):
        snap, _, _ = _run(specs, jobs=1)
        for name in (
            "noc/windows_closed",
            "laser/transitions",
            "sim/packets_delivered",
        ):
            assert snap[name]["value"] > 0, name
        assert any(name.startswith("dba/split/") for name in snap)
        assert any(name.startswith("laser/state_cycles/") for name in snap)

    def test_worker_traces_merge_without_collisions(self, specs):
        _, events, _ = _run(specs, jobs=4)
        keys = [(e.stream, e.seq) for e in events]
        assert len(keys) == len(set(keys))
        assert {e.stream for e in events} == {
            f"job{i}" for i in range(len(specs))
        }

    def test_window_series_identical_serial_and_parallel(self, specs):
        """Worker series snapshots merge in submission order, so an
        instrumented ``--jobs N`` sweep reproduces the serial series
        column-for-column (including the per-job stream tags)."""

        def _series(jobs):
            with obs.session(series_every=1):
                results = ExperimentEngine(jobs=jobs).run(specs)
                return OBS.series.arrays(), [
                    r.mean_laser_power_w for r in results
                ]

        serial, results_serial = _series(jobs=1)
        parallel, results_parallel = _series(jobs=2)
        assert results_serial == results_parallel
        assert len(serial["cycle"]) > 0
        assert set(serial) == set(parallel)
        for column in serial:
            a, b = serial[column], parallel[column]
            if a.dtype.kind == "f":
                assert np.array_equal(a, b, equal_nan=True), column
            else:
                assert np.array_equal(a, b), column
        assert set(serial["stream"].tolist()) == {
            f"job{i}" for i in range(len(specs))
        }

    def test_series_cadence_propagates_to_workers(self, specs):
        def _rows(series_every):
            with obs.session(series_every=series_every):
                ExperimentEngine(jobs=2).run(specs)
                return len(OBS.series)

        full = _rows(1)
        halved = _rows(2)
        assert full > 0
        assert 0 < halved < full


class TestResultDeterminism:
    def test_results_identical_with_telemetry_on_or_off(self, specs):
        plain = ExperimentEngine(jobs=1).run(specs)
        with obs.session():
            instrumented = ExperimentEngine(jobs=1).run(specs)
        for a, b in zip(plain, instrumented):
            assert a.stats.to_dict() == b.stats.to_dict()
            assert a.state_residency == b.state_residency
            assert a.mean_laser_power_w == b.mean_laser_power_w

    def test_pearl_jobs_run_on_the_array_engine(self, specs):
        """Production guard: a pearl job takes the default engine, and
        that default is the array core (the reference engine is only
        the test oracle)."""
        with obs.session():
            ExperimentEngine(jobs=1).run(specs[:1])
            engines = dict(OBS.engines)
        assert engines == {"array": 1}

    def test_execute_job_attaches_telemetry_only_when_enabled(self, specs):
        assert execute_job(specs[0]).telemetry is None
        with obs.session():
            telemetry = execute_job(specs[0]).telemetry
        assert telemetry is not None
        assert telemetry["metrics"]["sim/runs"]["value"] == 1


class TestCacheTelemetry:
    def _counters(self, snap):
        return {
            name: data["value"]
            for name, data in snap.items()
            if name.startswith("engine/cache_")
        }

    def test_cold_then_warm_counters(self, tmp_path, specs):
        cold, _, _ = _run(specs, jobs=2, cache=ResultCache(tmp_path))
        assert self._counters(cold) == {
            "engine/cache_misses": len(specs),
            "engine/cache_writes": len(specs),
        }
        warm, _, _ = _run(specs, jobs=2, cache=ResultCache(tmp_path))
        assert self._counters(warm) == {"engine/cache_hits": len(specs)}

    def test_warm_run_reports_same_simulation_metrics(self, tmp_path, specs):
        live, _, _ = _run(specs, jobs=1)
        _run(specs, jobs=1, cache=ResultCache(tmp_path))
        warm, _, _ = _run(specs, jobs=1, cache=ResultCache(tmp_path))
        sim_metrics = {
            name: data
            for name, data in live.items()
            if not name.startswith("engine/")
        }
        for name, data in sim_metrics.items():
            assert warm[name] == data, name

    def test_corrupt_entry_counts_error_and_eviction(self, tmp_path, specs):
        cache = ResultCache(tmp_path)
        _run(specs[:1], jobs=1, cache=cache)
        for path in tmp_path.glob("*.json"):
            path.write_text("{ not json")
        snap, _, _ = _run(specs[:1], jobs=1, cache=ResultCache(tmp_path))
        counters = self._counters(snap)
        assert counters["engine/cache_errors"] == 1
        # One eviction per torn *entry* (the meta+blob pair heals as a
        # unit, however many files the backend keeps per key).
        assert counters["engine/cache_evictions"] == 1
        assert counters["engine/cache_misses"] == 1
        assert counters["engine/cache_writes"] == 1
