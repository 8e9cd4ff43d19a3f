"""Spec canonicalization: one job, one key, everywhere.

The whole service rests on ``job_key`` being a *content* hash: the same
job must hash identically regardless of dict insertion order, which
process computed it, or whether the spec travelled over the wire.  And
the three execution paths — serial, sharded sweep, served over HTTP —
must return bit-identical results for the same specs.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.config import PearlConfig, PowerScalingConfig, SimulationConfig
from repro.experiments.cache import (
    CODE_VERSION,
    ResultCache,
    canonical_json,
    job_key,
)
from repro.experiments.parallel import (
    cmesh_job,
    collective_spec,
    execute_job,
    pair_spec,
    pearl_job,
    thermal_job,
    trace_job,
    uniform_spec,
)
from repro.experiments.runner import experiment_pairs
from repro.experiments.service.client import ServeClient
from repro.experiments.service.server import SweepServer
from repro.experiments.service.spec_codec import spec_from_doc, spec_to_doc
from repro.experiments.service.sweeper import SweepRunner
from repro.faults import FaultSchedule, WavelengthFault
from repro.noc.router import PowerPolicyKind

# JSON-able payloads: nested dicts/lists of JSON scalars.  NaN/inf are
# excluded because canonical_json (allow_nan=False) rejects them loudly.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=16),
)
_payloads = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=24,
).filter(lambda value: isinstance(value, dict))


def _reorder(value, rng):
    """The same payload with every dict's insertion order shuffled."""
    if isinstance(value, dict):
        keys = list(value)
        rng.shuffle(keys)
        return {key: _reorder(value[key], rng) for key in keys}
    if isinstance(value, list):
        return [_reorder(item, rng) for item in value]
    return value


@pytest.fixture
def tiny_sim_config() -> PearlConfig:
    return PearlConfig(
        simulation=SimulationConfig(warmup_cycles=100, measure_cycles=1_000),
        power_scaling=PowerScalingConfig(reservation_window=200),
    )


class TestJobKeyProperties:
    @settings(max_examples=60, deadline=None)
    @given(payload=_payloads, rng=st.randoms(use_true_random=False))
    def test_key_ignores_field_ordering(self, payload, rng):
        assert job_key(_reorder(payload, rng)) == job_key(payload)

    @settings(max_examples=60, deadline=None)
    @given(payload=_payloads)
    def test_key_survives_json_roundtrip(self, payload):
        """Wire transport (dump/parse) cannot move a job to a new key."""
        rehydrated = json.loads(json.dumps(payload))
        assert job_key(rehydrated) == job_key(payload)

    @settings(max_examples=30, deadline=None)
    @given(payload=_payloads)
    def test_salt_partitions_the_keyspace(self, payload):
        assert job_key(payload, salt="a") != job_key(payload, salt="b")

    def test_canonical_json_is_compact_and_sorted(self):
        assert canonical_json({"b": 1, "a": [1.5, None]}) == (
            '{"a":[1.5,null],"b":1}'
        )

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


class TestCrossProcessStability:
    def test_key_is_stable_across_a_process_boundary(self, tiny_sim_config):
        """A fresh interpreter hashes the same payload to the same key."""
        pair = experiment_pairs(quick=True)[0]
        spec = pearl_job(tiny_sim_config, pair_spec(pair, 3), seed=3)
        payload = spec.payload()
        here = job_key(payload)

        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        program = (
            "import sys, json; "
            "from repro.experiments.cache import job_key; "
            "print(job_key(json.load(sys.stdin)))"
        )
        there = subprocess.run(
            [sys.executable, "-c", program],
            input=json.dumps(payload),
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        ).stdout.strip()
        assert there == here
        assert job_key(payload, salt=CODE_VERSION) == here


class TestSpecCodecPreservesKeys:
    def _variants(self, config):
        pair = experiment_pairs(quick=True)[0]
        faults = FaultSchedule(
            wavelength_faults=[WavelengthFault(wavelengths=2, start=50)]
        )
        return [
            pearl_job(config, pair_spec(pair, 3), seed=3),
            pearl_job(
                config,
                uniform_spec(0.4, 5),
                seed=5,
                power_policy=PowerPolicyKind.REACTIVE,
                use_dynamic_bandwidth=False,
                allow_8wl=True,
            ),
            pearl_job(config, pair_spec(pair, 3), seed=3, faults=faults),
            pearl_job(config, pair_spec(pair, 3), seed=3, static_state=16),
            cmesh_job(config, pair_spec(pair, 2), seed=2),
            trace_job(config, uniform_spec(0.2, 9), seed=9),
            pearl_job(
                config,
                collective_spec("allreduce_ring", 7),
                seed=7,
                power_policy=PowerPolicyKind.REACTIVE,
            ),
            thermal_job(
                config,
                wavelength_state=16,
                activity=0.5,
                settle_cycles=100,
                settle_steps=2,
            ),
        ]

    def test_wire_roundtrip_lands_on_the_same_cache_entry(
        self, tiny_sim_config, tmp_path
    ):
        cache = ResultCache(directory=tmp_path, salt=CODE_VERSION)
        for spec in self._variants(tiny_sim_config):
            doc = json.loads(json.dumps(spec_to_doc(spec)))
            decoded = spec_from_doc(doc)
            assert cache.key_for(decoded) == cache.key_for(spec), spec.kind

    def test_reordered_documents_decode_to_the_same_key(
        self, tiny_sim_config, tmp_path
    ):
        import random

        cache = ResultCache(directory=tmp_path, salt=CODE_VERSION)
        spec = self._variants(tiny_sim_config)[0]
        doc = spec_to_doc(spec)
        shuffled = _reorder(doc, random.Random(7))
        assert cache.key_for(spec_from_doc(shuffled)) == cache.key_for(spec)

    def test_unknown_collective_algorithm_rejected_at_decode(
        self, tiny_sim_config
    ):
        """A bad algorithm never reaches a worker: the strict codec
        (via TraceSpec validation) rejects it at decode time."""
        spec = pearl_job(
            tiny_sim_config, collective_spec("allreduce_ring", 7), seed=7
        )
        doc = spec_to_doc(spec)
        doc["trace"]["algorithm"] = "ring_of_fire"
        with pytest.raises(ValueError, match="ring_of_fire"):
            spec_from_doc(doc)

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("power_policy", "warp", "unknown power policy 'warp'"),
            ("trace", None, "pearl job specs need a trace"),
            ("static_state", 7, "unknown static wavelength state 7"),
        ],
        ids=["unknown-policy", "pearl-without-trace", "off-ladder-state"],
    )
    def test_malformed_pearl_spec_rejected_at_decode(
        self, tiny_sim_config, field, value, match
    ):
        """Documents that used to decode fine and then fail inside a
        pool worker are rejected by JobSpec validation at decode."""
        pair = experiment_pairs(quick=True)[0]
        doc = spec_to_doc(pearl_job(tiny_sim_config, pair_spec(pair, 3)))
        doc[field] = value
        with pytest.raises(ValueError, match=match):
            spec_from_doc(doc)

    def test_pair_trace_payload_has_no_algorithm_key(self, tiny_sim_config):
        """Pair/uniform payloads must not grow an ``algorithm`` key —
        that would shift every existing cache entry's content hash."""
        pair = experiment_pairs(quick=True)[0]
        spec = pearl_job(tiny_sim_config, pair_spec(pair, 3), seed=3)
        assert "algorithm" not in spec.trace.payload()


def _result_fingerprint(result):
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


class TestThreeWayIdentity:
    def test_serial_sharded_and_served_agree(self, tiny_sim_config, tmp_path):
        """The acceptance property: serial == sharded == served."""
        pair = experiment_pairs(quick=True)[0]
        specs = [
            trace_job(tiny_sim_config, pair_spec(pair, seed), seed=seed)
            for seed in (1, 2, 3)
        ]
        serial = [_result_fingerprint(execute_job(spec)) for spec in specs]

        sweep_cache = ResultCache(directory=tmp_path / "sweep_cache")
        sharded, _ = SweepRunner(sweep_cache, jobs=1, shard_size=2).run(
            specs, tmp_path / "manifest"
        )
        assert [_result_fingerprint(r) for r in sharded] == serial

        serve_cache = ResultCache(directory=tmp_path / "serve_cache")
        server = SweepServer(cache=serve_cache, port=0, jobs=1)
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            asyncio.run_coroutine_threadsafe(server.start(), loop).result(
                timeout=60
            )
            client = ServeClient(server.host, server.port)
            served = [
                _result_fingerprint(
                    client.submit_result(spec_to_doc(spec))
                )
                for spec in specs
            ]
        finally:
            asyncio.run_coroutine_threadsafe(server.stop(), loop).result(
                timeout=60
            )
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=30)
            loop.close()
        assert served == serial
