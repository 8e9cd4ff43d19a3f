"""The evaluation's job graph, as the registered experiments declare it.

Every experiment lists its job specs with ``jobs`` and folds their
results with ``table``, which submits nothing; ``run_all`` hands the
engine each distinct spec once.  Nothing here simulates: the engine
stand-in records a batch and stops the run, and the default ML models
the specs name are stood in by small files, so no model is trained.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    REGISTRY,
    collective_study,
    fig5_energy,
    fig9_comparison,
    fig10_window_sweep,
    policy_bakeoff,
    power_scaling_suite,
    run_all,
)
from repro.experiments.ablations import LOW_STATE
from repro.experiments.parallel import ExperimentEngine, JobSpec

#: Experiments that submit nothing to the engine: table dumps, direct
#: runs and model fits.
JOBLESS = ("table1", "table2", "table5", "ml_lifecycle", "thermal_study")
WITH_JOBS = [exp_id for exp_id in REGISTRY if exp_id not in JOBLESS]


@pytest.fixture(autouse=True)
def stand_in_models(tmp_path, monkeypatch):
    """One small file per (window, mode) in place of each default model."""

    def model_file(window=500, quick=True, seed=2018):
        path = tmp_path / f"rw{window}-{'quick' if quick else 'full'}.npz"
        path.write_bytes(path.name.encode())
        return path

    for module in (
        fig9_comparison,
        fig10_window_sweep,
        policy_bakeoff,
        power_scaling_suite,
    ):
        monkeypatch.setattr(module, "ensure_model_file", model_file)
    monkeypatch.setattr(
        collective_study,
        "deployment_model_path",
        lambda seed: model_file(collective_study.WINDOW),
    )


class Submitted(Exception):
    """Raised by the engine stand-in once it has recorded a batch."""


@pytest.fixture
def submitted(monkeypatch):
    """The spec lists handed to the engine, one per ``run`` call; each
    call stops the run."""
    batches = []

    def run(self, specs, keyed=None):
        batches.append(list(specs))
        raise Submitted

    monkeypatch.setattr(ExperimentEngine, "run", run)
    return batches


def _declared(exp_id, quick=True, seed=1):
    return REGISTRY[exp_id].jobs(quick, seed)


class TestJobs:
    @pytest.mark.parametrize("exp_id", WITH_JOBS)
    def test_specs_are_hashable_and_rebuilt_equal(self, exp_id):
        first, second = _declared(exp_id), _declared(exp_id)
        assert first and all(isinstance(spec, JobSpec) for spec in first)
        assert first == second
        assert [hash(spec) for spec in first] == [hash(spec) for spec in second]

    @pytest.mark.parametrize("exp_id", JOBLESS)
    def test_jobless_experiments_declare_nothing(self, exp_id):
        assert _declared(exp_id, quick=True) == []
        assert _declared(exp_id, quick=False) == []


class TestTables:
    @pytest.mark.parametrize("exp_id", WITH_JOBS)
    def test_a_missing_result_is_a_key_error_not_a_job(
        self, exp_id, submitted
    ):
        with pytest.raises(KeyError):
            REGISTRY[exp_id].table(True, 1, {})
        assert submitted == []


class TestSharing:
    """Figures that read one sweep declare its specs, equal and in the
    same order, so a batch folding them simulates the sweep once."""

    @pytest.mark.parametrize("exp_id", ["fig6", "fig7", "fig8", "ml_quality"])
    def test_power_scaling_figures_declare_the_suite(self, exp_id):
        assert _declared(exp_id) == power_scaling_suite.jobs(True, 1)

    def test_the_8wl_ablation_declares_the_suite(self):
        suite = power_scaling_suite.jobs(True, 1)
        assert LOW_STATE.jobs(True, 1) == suite
        assert set(suite) <= set(_declared("ablations"))

    def test_headline_declares_fig9_fig5_and_the_suite(self):
        assert _declared("headline") == (
            fig9_comparison.jobs(True, 1)
            + fig5_energy.jobs(True, 1)
            + power_scaling_suite.jobs(True, 1)
        )


class TestRunAll:
    @pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
    def test_one_batch_of_each_distinct_spec(self, quick, submitted):
        with pytest.raises(Submitted):
            run_all(quick=quick, seed=1)
        declared = [
            spec for exp_id in REGISTRY for spec in _declared(exp_id, quick)
        ]
        assert submitted == [list(dict.fromkeys(declared))]
        assert len(submitted[0]) < len(declared)
