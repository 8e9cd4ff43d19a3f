"""The collective workload study: pinned rows, run as engine jobs.

``ROWS`` are the quick table's rows as computed before the study ran
its grid through the job engine; the move had to leave every one of
them unchanged.  The study submits its grid with ``run_jobs``, so the
engine's worker count must not change a row and its result cache must
answer a rerun without executing a job.
"""

from __future__ import annotations

import pytest

from repro.experiments import clear_cache, collective_study, engine_scope


def _row(policy, signaling, action, throughput, latency, power, energy,
         drift=0, retrain=0):
    return {
        "algorithm": "allreduce_ring",
        "signaling": signaling,
        "policy": policy,
        "drift_action": action,
        "throughput": throughput,
        "mean_latency": latency,
        "laser_power_w": power,
        "energy_pj_per_bit": energy,
        "drift_events": drift,
        "retrain_events": retrain,
    }


ROWS = [
    _row("reactive", "nrz", "-", 7.996875, 306.2872385230942,
         19.716387500000003, 9.789784511527943),
    _row("ml", "nrz", "flag", 1.0035, 3500.4744791666667, 6.9761625,
         27.39417312842551, drift=16),
    _row("ml", "nrz", "retrain", 1.0035, 3500.4744791666667, 4.2119225,
         16.60322145926756, drift=1, retrain=1),
    _row("proteus", "nrz", "-", 7.996875, 306.2872385230942,
         19.716387500000003, 9.789784511527943),
    _row("d3noc", "nrz", "-", 1.6225, 2142.6023140495868,
         4.920649999999999, 12.011932299691832),
    _row("reactive", "pam4", "-", 8.448125, 68.76481950179833,
         44.03559588332627, 20.698065594159697),
    _row("ml", "pam4", "flag", 2.000875, 2826.744, 14.017502278909262,
         27.7243815867909, drift=16),
    _row("ml", "pam4", "retrain", 2.000875, 2826.744, 11.241260662343688,
         22.299256921477333, drift=1, retrain=1),
    _row("proteus", "pam4", "-", 4.833125, 1246.8041072447234,
         20.624533778106542, 17.00269491834382),
    _row("d3noc", "pam4", "-", 2.236375, 2413.486050986051,
         11.330481360983315, 20.127240513593417),
]


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    """Refit models go to a throwaway registry; no rows stay memoised."""
    monkeypatch.setenv("PEARL_REGISTRY_DIR", str(tmp_path / "registry"))
    yield
    clear_cache()


def _quick_rows():
    """The quick rows, computed through the current engine."""
    clear_cache()
    return collective_study.run(quick=True).rows


def test_quick_rows_are_pinned():
    with engine_scope(jobs=1, use_cache=False):
        assert _quick_rows() == ROWS


def test_workers_and_cache_leave_the_rows_alone(tmp_path):
    with engine_scope(jobs=2, use_cache=False):
        assert _quick_rows() == ROWS
    with engine_scope(
        jobs=1, use_cache=True, backend=f"dir:{tmp_path / 'results'}"
    ) as engine:
        assert _quick_rows() == ROWS
        assert engine.cache.misses == len(ROWS)
        assert _quick_rows() == ROWS
        assert engine.cache.hits == len(ROWS)
        assert engine.cache.misses == len(ROWS)


def test_rerun_fits_no_model(tmp_path, monkeypatch):
    """The deployment model is fitted once per registry: a rerun finds
    it by its training key, and its ML jobs hit the result cache."""
    fitted = collective_study.deployment_fitted_model
    fits = []

    def counting_fit(**kwargs):
        fits.append(kwargs)
        return fitted(**kwargs)

    monkeypatch.setattr(
        collective_study, "deployment_fitted_model", counting_fit
    )
    with engine_scope(
        jobs=1, use_cache=True, backend=f"dir:{tmp_path / 'results'}"
    ) as engine:
        assert _quick_rows() == ROWS
        assert _quick_rows() == ROWS
        assert engine.cache.hits == len(ROWS)
    assert len(fits) == 1
    path = collective_study.deployment_model_path(seed=1)
    assert len(fits) == 1
    assert path.parent.parent.parent == tmp_path / "registry"
