"""JobSpec validation: a job that cannot run is rejected when built.

An unknown power policy, a traced job kind without a trace, or a static
wavelength state off the config's ladder would otherwise only fail
inside a pool worker.  ``JobSpec`` rejects them at construction — which
is also when the wire codec decodes a served spec — so ``pearl-sim
serve`` answers 400 instead of accepting a job that cannot run.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import PearlConfig, PhotonicConfig
from repro.experiments.parallel import (
    JobSpec,
    pair_spec,
    pearl_job,
    thermal_job,
)
from repro.experiments.runner import experiment_pairs
from repro.noc.router import PowerPolicyKind


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
