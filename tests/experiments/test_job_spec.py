"""JobSpec validation: a job that cannot run is rejected when built.

An unknown power policy, a traced job kind without a trace, or a static
wavelength state off the config's ladder would otherwise only fail
inside a pool worker.  ``JobSpec`` rejects them at construction — which
is also when the wire codec decodes a served spec — so ``pearl-sim
serve`` answers 400 instead of accepting a job that cannot run.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.config import (
    ArchitectureConfig,
    PearlConfig,
    PhotonicConfig,
    SimulationConfig,
)
from repro.experiments.parallel import (
    JobSpec,
    collective_spec,
    execute_job,
    pair_spec,
    pearl_job,
    thermal_job,
    uniform_spec,
)
from repro.experiments.runner import experiment_pairs
from repro.noc.packet import CoreType
from repro.noc.router import PowerPolicyKind
from repro.traffic.synthetic import uniform_random_trace
from repro.traffic.trace import Trace


@pytest.fixture(scope="module")
def trace_spec():
    return pair_spec(experiment_pairs(quick=True)[0], 3)


class TestTraceRequired:
    @pytest.mark.parametrize("kind", ["pearl", "cmesh", "mwsr", "trace"])
    def test_traced_kind_without_trace_rejected(self, kind):
        with pytest.raises(ValueError, match=f"{kind} job specs need a trace"):
            JobSpec(kind=kind, config=PearlConfig())

    def test_thermal_job_needs_no_trace(self):
        spec = thermal_job(
            PearlConfig(),
            wavelength_state=32,
            activity=0.5,
            settle_cycles=100,
            settle_steps=2,
        )
        assert spec.trace is None


class TestPowerPolicy:
    @pytest.mark.parametrize(
        "policy", list(PowerPolicyKind), ids=lambda kind: kind.value
    )
    def test_every_policy_accepted(self, policy, trace_spec):
        spec = pearl_job(PearlConfig(), trace_spec, power_policy=policy)
        assert spec.power_policy == policy.value

    def test_enum_name_is_not_a_policy(self, trace_spec):
        """Specs carry policy values ("reactive"), not enum names."""
        with pytest.raises(
            ValueError, match="unknown power policy 'REACTIVE'"
        ):
            JobSpec(
                kind="pearl",
                config=PearlConfig(),
                trace=trace_spec,
                power_policy="REACTIVE",
            )


class TestStaticState:
    def test_every_ladder_state_accepted(self, trace_spec):
        config = PearlConfig()
        for state in config.photonic.wavelength_states:
            spec = pearl_job(config, trace_spec, static_state=state)
            assert spec.static_state == state

    def test_checked_against_the_configs_ladder(self, trace_spec):
        photonic = replace(
            PhotonicConfig(),
            wavelength_states=(64, 40, 16),
            laser_power_w=(1.16, 0.73, 0.29),
            serialization_cycles=(2, 4, 8),
        )
        config = PearlConfig().replace(photonic=photonic)
        spec = pearl_job(config, trace_spec, static_state=40)
        assert spec.static_state == 40
        with pytest.raises(
            ValueError, match="unknown static wavelength state 48"
        ):
            pearl_job(config, trace_spec, static_state=48)


class TestArchitecture:
    """Every trace kind is built for the job's own chip."""

    @pytest.fixture(scope="class")
    def four_clusters(self):
        return PearlConfig(
            architecture=ArchitectureConfig(num_clusters=4),
            simulation=SimulationConfig(warmup_cycles=50, measure_cycles=250),
        )

    @pytest.mark.parametrize(
        "spec",
        [
            pair_spec(experiment_pairs(quick=True)[0], 3),
            uniform_spec(0.3, 3),
            collective_spec("allreduce_ring", 3),
        ],
        ids=["pair", "uniform", "collective"],
    )
    def test_specs_run_on_a_four_cluster_chip(self, spec, four_clusters):
        trace = spec.build(four_clusters)
        assert len(trace) > 0
        assert trace.columns[1:3].max() <= four_clusters.architecture.l3_router_id
        result = execute_job(pearl_job(four_clusters, spec, seed=3))
        assert result.stats.packets_delivered > 0

    def test_default_uniform_trace_unchanged(self):
        """The default chip's uniform trace is the one it always was."""
        config = PearlConfig(
            simulation=SimulationConfig(warmup_cycles=100, measure_cycles=400)
        )
        spec = uniform_spec(0.2, 5)
        expected = Trace.merge(
            [
                uniform_random_trace(
                    CoreType.CPU, rate=0.2, duration=500, seed=5
                ),
                uniform_random_trace(
                    CoreType.GPU, rate=0.2, duration=500, seed=6
                ),
            ]
        )
        assert np.array_equal(spec.build(config).columns, expected.columns)
        assert spec.payload() == {
            "kind": "uniform",
            "cpu": None,
            "gpu": None,
            "rate": 0.2,
            "seed": 5,
        }
