"""Tests for repro.experiments.runner."""

import pytest

from repro import obs
from repro.config import PearlConfig, SimulationConfig
from repro.experiments import engine_scope, parallel, run_experiment, runner
from repro.experiments.parallel import ExperimentEngine, pair_spec, trace_job
from repro.experiments.runner import (
    Experiment,
    ExperimentResult,
    describe_pair,
    experiment_pairs,
    fold,
    no_jobs,
    simulation_config,
)
from repro.traffic.benchmarks import test_pairs as paper_test_pairs


class TestExperimentResult:
    def test_add_and_column(self):
        result = ExperimentResult(name="demo")
        result.add_row(config="a", value=1.0)
        result.add_row(config="b", value=3.0)
        assert result.column("value") == [1.0, 3.0]
        assert result.mean("value") == 2.0

    def test_mean_missing_column_raises(self):
        with pytest.raises(KeyError):
            ExperimentResult(name="demo").mean("nope")

    def test_format_table_contains_rows(self):
        result = ExperimentResult(name="demo")
        result.add_row(config="a", value=1.2345)
        text = result.format_table()
        assert "demo" in text
        assert "config" in text
        assert "1.234" in text

    def test_format_empty(self):
        assert "no rows" in ExperimentResult(name="x").format_table()

    def test_notes_appended(self):
        result = ExperimentResult(name="demo", notes=["hello"])
        result.add_row(a=1)
        assert "hello" in result.format_table()


class TestPartialColumns:
    """Regression: partial columns must be an explicit choice.

    ``column()`` used to drop rows lacking the key silently while
    ``mean()`` raised — aggregations over heterogeneous results (e.g.
    the concatenated ablations table) could quietly average a subset.
    """

    def _partial(self) -> ExperimentResult:
        result = ExperimentResult(name="partial")
        result.add_row(config="a", value=1.0)
        result.add_row(config="b")  # no "value"
        result.add_row(config="c", value=3.0)
        return result

    def test_partial_column_raises_by_default(self):
        with pytest.raises(KeyError, match=r"missing from rows \[1\]"):
            self._partial().column("value")

    def test_partial_mean_raises_by_default(self):
        with pytest.raises(KeyError):
            self._partial().mean("value")

    def test_drop_mode_skips_absent_rows(self):
        assert self._partial().column("value", missing="drop") == [1.0, 3.0]
        assert self._partial().mean("value", missing="drop") == 2.0

    def test_fill_mode_substitutes(self):
        assert self._partial().column("value", missing="fill") == [
            1.0,
            None,
            3.0,
        ]
        assert self._partial().column("value", missing="fill", fill=0.0) == [
            1.0,
            0.0,
            3.0,
        ]

    def test_fill_mean_ignores_none(self):
        # None fills are excluded from the mean rather than crashing.
        assert self._partial().mean("value", missing="fill") == 2.0

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            self._partial().column("value", missing="bogus")

    def test_complete_column_unaffected(self):
        result = ExperimentResult(name="full")
        result.add_row(value=2.0)
        result.add_row(value=4.0)
        assert result.column("value") == [2.0, 4.0]
        assert result.mean("value") == 3.0

    def test_wholly_absent_column_raises_in_drop_mode_mean(self):
        result = ExperimentResult(name="none")
        result.add_row(other=1.0)
        with pytest.raises(KeyError):
            result.mean("value", missing="drop")


class TestPairsAndConfig:
    def test_quick_pairs_are_diagonal(self):
        quick = experiment_pairs(quick=True)
        assert len(quick) == 4
        full = paper_test_pairs()
        assert quick == [full[0], full[5], full[10], full[15]]

    def test_full_pairs_are_all_sixteen(self):
        assert len(experiment_pairs(quick=False)) == 16

    def test_quick_cycles_shorter(self):
        assert (
            simulation_config(quick=True).measure_cycles
            < simulation_config(quick=False).measure_cycles
        )

    def test_describe_pair(self):
        pair = experiment_pairs()[0]
        assert describe_pair(pair) == "FA+DCT"


def _trace_spec(seed: int):
    config = PearlConfig(
        simulation=SimulationConfig(warmup_cycles=0, measure_cycles=200)
    )
    return trace_job(config, pair_spec(experiment_pairs()[0], seed))


def _stub(specs, seen):
    """An experiment declaring ``specs``; its table records what it read."""

    def table(quick, seed, results):
        seen.append([results[spec] for spec in specs])
        return ExperimentResult(name="stub")

    return Experiment(lambda quick, seed: list(specs), table)


def _packets(quick, seed, results):
    """The packet counts of the experiment's one trace job."""
    result = ExperimentResult(name="packets")
    result.add_row(**results[_trace_spec(seed)].extras)
    return result


#: An experiment of one trace job, seeded by the run's seed.
PACKETS = Experiment(lambda quick, seed: [_trace_spec(seed)], _packets)


@pytest.fixture
def executed(monkeypatch):
    """The specs the engine executes (its cache misses), in order."""
    specs = []
    execute = parallel.execute_job

    def recording_execute(spec):
        specs.append(spec)
        return execute(spec)

    monkeypatch.setattr(parallel, "execute_job", recording_execute)
    return specs


@pytest.fixture
def batches(monkeypatch):
    """The spec lists the engine is handed, one per ``run`` call."""
    calls = []
    run = ExperimentEngine.run

    def recording_run(self, specs, keyed=None):
        calls.append(list(specs))
        return run(self, specs, keyed)

    monkeypatch.setattr(ExperimentEngine, "run", recording_run)
    return calls


class TestFold:
    def test_a_shared_spec_runs_once_and_both_tables_read_it(self, batches):
        a, shared, b = (_trace_spec(seed) for seed in (1, 2, 3))
        first, second = [], []
        with engine_scope(jobs=1, use_cache=False):
            fold([_stub([a, shared], first), _stub([shared, b], second)])
        assert batches == [[a, shared, b]]
        assert first[0][1] is second[0][0]
        assert first[0][0] is not second[0][1]

    def test_equal_specs_built_apart_are_one_job(self, batches):
        first, second = [], []
        twins = [_stub([_trace_spec(1)], seen) for seen in (first, second)]
        with engine_scope(jobs=1, use_cache=False):
            fold(twins)
        assert len(batches) == 1 and len(batches[0]) == 1
        assert first[0][0] is second[0][0]

    def test_no_jobs_no_engine_call(self, batches):
        empty = Experiment(no_jobs, lambda q, s, r: ExperimentResult("x"))
        tables = fold([empty])
        assert batches == []
        assert [table.name for table in tables] == ["x"]

    def test_a_rerun_under_telemetry_executes_its_jobs(
        self, monkeypatch, batches
    ):
        """Nothing memoises a table in the process: an experiment run a
        second time, under telemetry and an uncached engine, runs its
        jobs again and records them."""
        monkeypatch.setattr(runner, "QUICK_CYCLES", (50, 300))
        with engine_scope(jobs=1, use_cache=False):
            first = run_experiment("arbitration")
            with obs.session():
                second = run_experiment("arbitration")
                snapshot = obs.OBS.registry.snapshot()
        assert second.rows == first.rows
        assert len(batches) == 2
        assert snapshot["engine/jobs_executed"]["value"] == len(batches[1]) > 0


class TestCache:
    """A repeated run is answered by the result cache of the engine in
    scope, keyed by job spec: nothing memoises a table in the process."""

    def test_cached_computes_once(self, tmp_path, executed):
        with engine_scope(jobs=1, use_cache=True, backend=f"dir:{tmp_path}"):
            first = run_experiment(PACKETS)
            second = run_experiment(PACKETS)
        assert executed == [_trace_spec(1)]
        assert second.rows == first.rows

    def test_distinct_keys_isolated(self, tmp_path, executed):
        with engine_scope(jobs=1, use_cache=True, backend=f"dir:{tmp_path}"):
            one = run_experiment(PACKETS, seed=1)
            two = run_experiment(PACKETS, seed=2)
            again = run_experiment(PACKETS, seed=1)
        assert executed == [_trace_spec(1), _trace_spec(2)]
        assert again.rows == one.rows != two.rows
