"""Determinism guarantees of the parallel experiment engine.

The engine promises that the same job specs produce bit-for-bit
identical results (a) across repeated serial runs and (b) between a
serial run and a process-pool fan-out, because every RNG is seeded from
the spec alone and ML models travel by file path through a lossless
``.npz`` round trip.
"""

from __future__ import annotations

import pytest

from repro.experiments.parallel import (
    ExperimentEngine,
    execute_job,
    pair_spec,
    pearl_job,
)
from repro.experiments.runner import experiment_pairs
from repro.noc.router import PowerPolicyKind


def _result_fingerprint(result):
    """Everything a job returns, as comparable plain data."""
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


@pytest.fixture(scope="module")
def ml_model_file(tmp_path_factory):
    """A tiny fitted ridge model persisted the way real sweeps ship it."""
    from repro.config import (
        PearlConfig,
        PowerScalingConfig,
        SimulationConfig,
    )
    from repro.ml.pipeline import PowerModelTrainer
    from repro.traffic.benchmarks import CPU_BENCHMARKS, GPU_BENCHMARKS

    config = PearlConfig(
        simulation=SimulationConfig(warmup_cycles=100, measure_cycles=1_500),
        power_scaling=PowerScalingConfig(reservation_window=200),
    )
    trainer = PowerModelTrainer(
        config=config,
        train_pairs=[
            (CPU_BENCHMARKS["blackscholes"], GPU_BENCHMARKS["binary_search"])
        ],
        val_pairs=[(CPU_BENCHMARKS["raytrace"], GPU_BENCHMARKS["prefix_sum"])],
        seed=11,
    )
    model = trainer.train().model
    path = tmp_path_factory.mktemp("models") / "tiny_model.npz"
    model.save(path)
    return config, path


@pytest.fixture(scope="module")
def determinism_specs(ml_model_file):
    """Two pairs under PEARL-Dyn and two under ML RW500-style scaling."""
    config, model_path = ml_model_file
    pairs = experiment_pairs(quick=True)[:2]
    specs = []
    for i, pair in enumerate(pairs):
        specs.append(pearl_job(config, pair_spec(pair, 1 + i), seed=1 + i))
        specs.append(
            pearl_job(
                config,
                pair_spec(pair, 1 + i),
                seed=1 + i,
                power_policy=PowerPolicyKind.ML,
                ml_model_path=model_path,
            )
        )
    return specs


class TestSerialDeterminism:
    def test_two_serial_runs_identical(self, determinism_specs):
        first = [execute_job(spec) for spec in determinism_specs]
        second = [execute_job(spec) for spec in determinism_specs]
        for a, b in zip(first, second):
            assert _result_fingerprint(a) == _result_fingerprint(b)

    def test_results_are_nontrivial(self, determinism_specs):
        results = [execute_job(spec) for spec in determinism_specs]
        assert all(r.stats.packets_delivered > 0 for r in results)
        ml_results = results[1::2]
        assert all(r.ml_predictions for r in ml_results)


class TestParallelMatchesSerial:
    def test_jobs4_identical_to_jobs1(self, determinism_specs):
        serial = ExperimentEngine(jobs=1).run(determinism_specs)
        parallel = ExperimentEngine(jobs=4).run(determinism_specs)
        assert len(serial) == len(parallel) == len(determinism_specs)
        for a, b in zip(serial, parallel):
            assert _result_fingerprint(a) == _result_fingerprint(b)

    def test_submission_order_preserved(self, determinism_specs):
        results = ExperimentEngine(jobs=4).run(determinism_specs)
        # Even-indexed specs are static PEARL-Dyn (no predictions),
        # odd-indexed ones are ML (with predictions) — ordering holds.
        for index, result in enumerate(results):
            if index % 2:
                assert result.ml_predictions
            else:
                assert not result.ml_predictions


class TestFaultedJobDeterminism:
    """Fault counters (CRC, retransmissions, drops, clamps) must merge
    identically whether jobs run serially or in a process pool."""

    @pytest.fixture(scope="class")
    def faulted_specs(self, ml_model_file):
        from repro.faults import (
            BitErrorFault,
            FaultSchedule,
            WavelengthFault,
        )

        config, _ = ml_model_file
        total = config.simulation.total_cycles
        schedule = FaultSchedule(
            wavelength_faults=(
                WavelengthFault(wavelengths=24, start=total // 3),
            ),
            bit_error_faults=(
                BitErrorFault(rate=0.001, start=total // 4),
            ),
            seed=5,
        )
        pairs = experiment_pairs(quick=True)[:2]
        return [
            pearl_job(config, pair_spec(pair, 1 + i), seed=1 + i, faults=schedule)
            for i, pair in enumerate(pairs)
        ]

    def test_faults_change_the_cache_key(self, ml_model_file, faulted_specs):
        config, _ = ml_model_file
        pair = experiment_pairs(quick=True)[0]
        clean = pearl_job(config, pair_spec(pair, 1), seed=1)
        assert clean.payload() != faulted_specs[0].payload()
        assert clean.payload()["faults"] is None
        assert (
            faulted_specs[0].payload()["faults"]
            == faulted_specs[0].faults.payload()
        )

    def test_faulted_jobs2_identical_to_jobs1(self, faulted_specs):
        serial = ExperimentEngine(jobs=1).run(faulted_specs)
        parallel = ExperimentEngine(jobs=2).run(faulted_specs)
        for a, b in zip(serial, parallel):
            assert _result_fingerprint(a) == _result_fingerprint(b)
        # The schedule was actually live in the workers:
        assert any(r.stats.crc_errors > 0 for r in serial)
        assert any(r.stats.fault_clamp_events > 0 for r in serial)


class TestEngineValidation:
    def test_zero_jobs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentEngine(jobs=0)
