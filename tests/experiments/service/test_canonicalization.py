"""Spec canonicalization: one job, one key, everywhere.

The whole service rests on ``job_key`` being a *content* hash: the same
job must hash identically regardless of dict insertion order, which
process computed it, or whether the spec travelled over the wire.  And
the three execution paths — serial, sharded sweep, served over HTTP —
must return bit-identical results for the same specs.
"""

from __future__ import annotations

import asyncio
import copy
import dataclasses
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.config import PearlConfig, PowerScalingConfig, SimulationConfig
from repro.config_io import config_to_dict
from repro.experiments.cache import (
    CODE_VERSION,
    ResultCache,
    canonical_json,
    job_key,
)
from repro.experiments.parallel import (
    JobSpec,
    TraceSpec,
    cmesh_job,
    collective_spec,
    execute_job,
    mwsr_job,
    pair_spec,
    pearl_job,
    trace_job,
    uniform_spec,
)
from repro.experiments.runner import experiment_pairs
from repro.experiments.service.client import ServeClient
from repro.experiments.service.server import SweepServer
from repro.experiments.service.spec_codec import spec_from_doc, spec_to_doc
from repro.experiments.service.sweeper import SweepRunner
from repro.faults import (
    BitErrorFault,
    FaultSchedule,
    LaserDroopFault,
    WavelengthFault,
)
from repro.ml.features import NUM_FEATURES
from repro.ml.lifecycle import default_registry
from repro.ml.ridge import RidgeRegression
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


def _set(path, value):
    """A document mutation setting the field at ``path`` to ``value``."""

    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return mutate


def _drop(path):
    """A document mutation deleting the field at ``path``."""

    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]

    return mutate


#: (id, mutation of a valid pair-trace pearl document, expected error).
MALFORMED_DOCS = [
    ("unknown-trace-kind", _set(("trace", "kind"), "nope"),
     "unknown trace kind 'nope'"),
    ("unknown-benchmark", _set(("trace", "cpu"), "no_such_benchmark"),
     "unknown benchmark 'no_such_benchmark'"),
    ("cpu-benchmark-as-gpu", _set(("trace", "gpu"), "blackscholes"),
     "not a gpu benchmark"),
    ("uniform-rate-above-one",
     _set(("trace",), {"kind": "uniform", "cpu": None, "gpu": None,
                       "rate": 1.5, "seed": 3}),
     r"rate must be in \[0, 1\]"),
    ("string-bool", _set(("use_dynamic_bandwidth",), "false"),
     "use_dynamic_bandwidth must be a boolean"),
    ("float-seed", _set(("seed",), 1.7), "seed must be an integer"),
    ("bool-seed", _set(("seed",), True), "seed must be an integer"),
    ("string-trace-seed", _set(("trace", "seed"), "3"),
     "seed must be an integer"),
    ("retired-allow-8wl", _set(("allow_8wl",), False),
     r"unknown JobSpec fields: \['allow_8wl'\]"),
    ("float-static-state", _set(("static_state",), 64.0),
     "static_state must be an integer"),
    ("retired-settle-cycles", _set(("settle_cycles",), 100),
     r"unknown JobSpec fields: \['settle_cycles'\]"),
    ("retired-settle-steps", _set(("settle_steps",), 2),
     r"unknown JobSpec fields: \['settle_steps'\]"),
    ("retired-wavelength-state", _set(("wavelength_state",), 64),
     r"unknown JobSpec fields: \['wavelength_state'\]"),
    ("retired-activity", _set(("activity",), 0.5),
     r"unknown JobSpec fields: \['activity'\]"),
    ("string-bandwidth-divisor", _set(("bandwidth_divisor",), "x"),
     "bandwidth_divisor must be an integer"),
    ("zero-bandwidth-divisor", _set(("bandwidth_divisor",), 0),
     "bandwidth_divisor must be positive"),
    ("config-not-an-object", _set(("config",), 5),
     "config must be an object, got 5"),
    ("missing-config", _drop(("config",)),
     r"JobSpec needs the fields \['config'\]"),
    ("unknown-model-tag", _set(("ml_model",), "no-such-model"),
     "ml_model: unknown model reference 'no-such-model'"),
    ("string-use-8wl", _set(("config", "power_scaling", "use_8wl"), "false"),
     "config.power_scaling.use_8wl must be a boolean, got 'false'"),
    ("float-window",
     _set(("config", "power_scaling", "reservation_window"), 500.0),
     "config.power_scaling.reservation_window must be an integer"),
    ("bool-window",
     _set(("config", "power_scaling", "reservation_window"), True),
     "config.power_scaling.reservation_window must be an integer"),
    ("bool-warmup", _set(("config", "simulation", "warmup_cycles"), False),
     "config.simulation.warmup_cycles must be an integer"),
    ("string-measure-cycles",
     _set(("config", "simulation", "measure_cycles"), "100"),
     "config.simulation.measure_cycles must be an integer"),
    ("int-quantization", _set(("config", "ml", "quantization"), 4),
     "config.ml.quantization must be a string or null"),
    ("nested-lambda-grid", _set(("config", "ml", "lambda_grid"), [[1.0]]),
     r"config.ml.lambda_grid\[0\] must be a number"),
]


def malformed_doc(config, mutate):
    """A valid pearl spec document with one malformation applied."""
    pair = experiment_pairs(quick=True)[0]
    spec = pearl_job(config, pair_spec(pair, 3))
    doc = json.loads(json.dumps(spec_to_doc(spec)))
    mutate(doc)
    return doc


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

    def test_quantization_spellings_are_one_job(self, tiny_sim_config):
        """Every spelling of one Qm.n format hashes to one key, and a
        served document carrying any of them decodes to one spec."""
        pair = experiment_pairs(quick=True)[0]
        spellings = ("q4.12", "Q4.12", "q4.12\n", "q04.12")
        specs = [
            pearl_job(
                tiny_sim_config.replace(
                    ml=dataclasses.replace(
                        tiny_sim_config.ml, quantization=spelling
                    )
                ),
                pair_spec(pair, 3),
                seed=3,
                power_policy=PowerPolicyKind.REACTIVE,
            )
            for spelling in spellings
        ]
        assert len({job_key(spec.payload()) for spec in specs}) == 1
        assert specs[0].config.ml.quantization == "q4.12"
        doc = json.loads(json.dumps(spec_to_doc(specs[0])))
        decoded = []
        for spelling in spellings:
            doc["config"]["ml"]["quantization"] = spelling
            decoded.append(spec_from_doc(doc))
        assert all(spec == specs[0] for spec in decoded)

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

    @pytest.mark.parametrize(
        "mutate,match",
        [pytest.param(m, match, id=case) for case, m, match in MALFORMED_DOCS],
    )
    def test_malformed_values_rejected_at_decode(
        self, tiny_sim_config, mutate, match
    ):
        """Wrong JSON types and invalid trace parameters never decode:
        no coercion turns them into a different job, and nothing that
        would fail in a pool worker gets that far."""
        with pytest.raises(ValueError, match=match):
            spec_from_doc(malformed_doc(tiny_sim_config, mutate))



#: A valid non-default value for every leaf of a PearlConfig.
LEAF_OVERRIDES = {
    "architecture.num_clusters": 8,
    "architecture.cpus_per_cluster": 4,
    "architecture.gpus_per_cluster": 2,
    "architecture.threads_per_cpu": 2,
    "architecture.cpu_frequency_ghz": 3.0,
    "architecture.gpu_frequency_ghz": 1.5,
    "architecture.network_frequency_ghz": 2.5,
    "architecture.cpu_l1i_kb": 16,
    "architecture.cpu_l1d_kb": 32,
    "architecture.cpu_l2_kb": 512,
    "architecture.gpu_l1_kb": 32,
    "architecture.gpu_l2_kb": 1024,
    "architecture.l3_mb": 16,
    "architecture.main_memory_gb": 32,
    "architecture.cache_line_bytes": 128,
    "architecture.memory_controllers": 4,
    "photonic.data_rate_gbps_per_wl": 32.0,
    "photonic.wavelength_states": (64, 32, 16, 8, 4),
    "photonic.laser_power_w": (1.2, 0.9, 0.6, 0.3, 0.15),
    "photonic.serialization_cycles": (1, 2, 2, 4, 8),
    "photonic.laser_turn_on_ns": 4.0,
    "photonic.signaling": "pam4",
    "photonic.pam4_power_penalty_db": 3.0,
    "optical.modulator_insertion_db": 1.5,
    "optical.waveguide_db_per_cm": 0.5,
    "optical.coupler_db": 0.8,
    "optical.splitter_db": 0.3,
    "optical.filter_through_db": 2e-3,
    "optical.filter_drop_db": 1.0,
    "optical.photodetector_db": 0.2,
    "optical.receiver_sensitivity_dbm": -20.0,
    "optical.ring_heating_w": 30e-6,
    "optical.ring_modulating_w": 400e-6,
    "optical.laser_wall_plug_efficiency": 0.15,
    "optical.waveguide_length_cm": 4.0,
    "optical.rings_passed_through": 32,
    "dba.cpu_upper_bound": 0.2,
    "dba.gpu_upper_bound": 0.1,
    "dba.bandwidth_step": 0.125,
    "dba.cpu_buffer_slots": 32,
    "dba.gpu_buffer_slots": 128,
    "power_scaling.reservation_window": 1000,
    "power_scaling.threshold_upper": 0.3,
    "power_scaling.threshold_mid_upper": 0.15,
    "power_scaling.threshold_mid_lower": 0.04,
    "power_scaling.threshold_lower": 0.01,
    "power_scaling.use_8wl": False,
    "power_scaling.router_stagger_cycles": 0,
    "ml.lambda_grid": (0.1, 1.0),
    "ml.num_features": 24,
    "ml.reintroduce_8wl": False,
    "ml.standardize_features": False,
    "ml.quantization": "q4.12",
    "ml.drift_detection": False,
    "ml.drift_action": "fallback",
    "ml.drift_ewma_alpha": 0.5,
    "ml.drift_z_threshold": 3.0,
    "ml.drift_patience": 5,
    "ml.drift_calibration_windows": 20,
    "ml.retrain_min_samples": 30,
    "ml.retrain_cooldown_windows": 0,
    "resilience.retry_limit": 0,
    "resilience.nack_latency_cycles": 4,
    "resilience.retry_backoff_cycles": 0,
    "simulation.warmup_cycles": 0,
    "simulation.measure_cycles": 5_000,
}


class TestEveryConfigLeaf:
    """Every config leaf reaches the wire and the result-cache key.

    A leaf the codec drops or mangles would let two different jobs
    share a cache entry, or send a served job to a different one than
    the local sweep computed.
    """

    def test_table_covers_every_leaf(self):
        leaves = {
            f"{section}.{name}"
            for section, fields in config_to_dict(PearlConfig()).items()
            for name in fields
        }
        assert set(LEAF_OVERRIDES) == leaves

    @pytest.mark.parametrize("path", sorted(LEAF_OVERRIDES))
    def test_leaf_round_trips_and_moves_the_key(self, path):
        pair = experiment_pairs(quick=True)[0]
        base = pearl_job(PearlConfig(), pair_spec(pair, 3), seed=3)
        section, name = path.split(".")
        default = PearlConfig()
        config = default.replace(
            **{
                section: dataclasses.replace(
                    getattr(default, section), **{name: LEAF_OVERRIDES[path]}
                )
            }
        )
        spec = pearl_job(config, pair_spec(pair, 3), seed=3)
        doc = json.loads(json.dumps(spec_to_doc(spec)))
        decoded = spec_from_doc(doc)
        assert decoded == spec
        assert job_key(decoded.payload()) == job_key(spec.payload())
        assert job_key(spec.payload()) != job_key(base.payload())


#: Registry tag of the model the spec documents below deploy.
SERVED_TAG = "served"


@pytest.fixture(scope="module")
def served_model(tmp_path_factory):
    """(tag, model file) of a model in a registry the decoder resolves."""
    root = tmp_path_factory.mktemp("spec-registry")
    model = RidgeRegression(lam=1.0).fit(
        np.eye(NUM_FEATURES), np.arange(NUM_FEATURES, dtype=float)
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PEARL_REGISTRY_DIR", str(root))
        registry = default_registry()
        record = registry.put(model, training={"key": {"spec": "codec"}})
        registry.promote(record.model_id, SERVED_TAG)
        yield SERVED_TAG, str(registry.model_path(record.model_id))


#: A valid non-default value for every JobSpec field; the model path is
#: the served model's file, sent as its registry tag.
JOB_FIELD_OVERRIDES = {
    "kind": "cmesh",
    "config": PearlConfig().with_reservation_window(1000),
    "trace": uniform_spec(0.4, 3),
    "seed": 9,
    "power_policy": "reactive",
    "use_dynamic_bandwidth": False,
    "static_state": 16,
    "ml_model_path": SERVED_TAG,
    "faults": FaultSchedule(
        wavelength_faults=(WavelengthFault(wavelengths=2, start=50),)
    ),
    "bandwidth_divisor": 2,
}

#: A valid non-default value for every TraceSpec field of a pair trace.
TRACE_FIELD_OVERRIDES = {
    "kind": "uniform",
    "cpu": "canneal",
    "gpu": "histogram",
    "rate": 0.25,
    "seed": 4,
    "algorithm": "allreduce_ring",
}


class TestEverySpecField:
    """Every JobSpec and TraceSpec field reaches the wire and the key,
    as every config leaf does (``TestEveryConfigLeaf``)."""

    def test_tables_cover_every_field(self):
        assert set(JOB_FIELD_OVERRIDES) == {
            f.name for f in dataclasses.fields(JobSpec)
        }
        assert set(TRACE_FIELD_OVERRIDES) == {
            f.name for f in dataclasses.fields(TraceSpec)
        }

    @staticmethod
    def _base():
        pair = experiment_pairs(quick=True)[0]
        return pearl_job(PearlConfig(), pair_spec(pair, 3), seed=3)

    @staticmethod
    def _check(base, spec, ml_model=None):
        doc = json.loads(json.dumps(spec_to_doc(spec, ml_model=ml_model)))
        decoded = spec_from_doc(doc)
        assert decoded == spec
        assert job_key(decoded.payload()) == job_key(spec.payload())
        assert job_key(spec.payload()) != job_key(base.payload())

    @pytest.mark.parametrize("name", sorted(JOB_FIELD_OVERRIDES))
    def test_job_field_round_trips_and_moves_the_key(self, name, served_model):
        base = self._base()
        value, ml_model = JOB_FIELD_OVERRIDES[name], None
        if name == "ml_model_path":
            ml_model, value = served_model
        self._check(base, dataclasses.replace(base, **{name: value}), ml_model)

    @pytest.mark.parametrize("name", sorted(TRACE_FIELD_OVERRIDES))
    def test_trace_field_round_trips_and_moves_the_key(self, name):
        base = self._base()
        trace = dataclasses.replace(
            base.trace, **{name: TRACE_FIELD_OVERRIDES[name]}
        )
        self._check(base, dataclasses.replace(base, trace=trace))


def _paths(value, prefix=()):
    """Every key or index path into a JSON document."""
    items = (
        value.items()
        if isinstance(value, dict)
        else enumerate(value) if isinstance(value, list) else ()
    )
    for key, item in items:
        yield prefix + (key,)
        yield from _paths(item, prefix + (key,))


#: Values a mutation writes: arbitrary JSON, plus values that are valid
#: somewhere in a spec document, so that mutations also get past the
#: JSON types to the dataclass validators.
_PLAUSIBLE = st.sampled_from([
    0, 1, -1, 2, 16, 64, 500, 0.5, 1.0, 2.5, "", "pair", "uniform",
    "collective", "thermal", "cmesh", "reactive", "ml", "pam4",
    "allreduce_ring", "blackscholes", "dct", "q4.12", "retrain",
    SERVED_TAG, [64, 32], [1.0],
])
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
    | _PLAUSIBLE,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def valid_docs(served_model):
    """Wire documents of every job kind, faults and a served model."""
    config = PearlConfig(
        simulation=SimulationConfig(warmup_cycles=100, measure_cycles=1_000),
        power_scaling=PowerScalingConfig(reservation_window=200),
    )
    pair = experiment_pairs(quick=True)[0]
    faults = FaultSchedule(
        wavelength_faults=(WavelengthFault(indices=(3, 4), router=2),),
        droop_faults=(LaserDroopFault(max_state=32, start=10, end=90),),
        bit_error_faults=(BitErrorFault(rate=1e-3),),
    )
    tag, model_path = served_model
    ml_config = config.replace(
        ml=dataclasses.replace(config.ml, quantization="q4.12")
    )
    specs = [
        (pearl_job(config, pair_spec(pair, 3), seed=3), None),
        (
            pearl_job(
                config,
                collective_spec("allreduce_ring", 7),
                seed=7,
                power_policy=PowerPolicyKind.REACTIVE,
                faults=faults,
            ),
            None,
        ),
        (cmesh_job(config, uniform_spec(0.2, 5), bandwidth_divisor=2), None),
        (mwsr_job(config, pair_spec(pair, 2), seed=2), None),
        (trace_job(config, uniform_spec(0.2, 9), seed=9), None),
        (
            pearl_job(
                ml_config,
                pair_spec(pair, 4),
                seed=4,
                power_policy=PowerPolicyKind.ML,
                ml_model_path=model_path,
            ),
            tag,
        ),
    ]
    return [
        json.loads(json.dumps(spec_to_doc(spec, ml_model=ml)))
        for spec, ml in specs
    ]


def mutated_doc(data, docs):
    """One of ``docs`` with any key dropped, or any leaf or subtree
    replaced with any JSON value, as ``data`` draws."""
    doc = copy.deepcopy(data.draw(st.sampled_from(docs)))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    target = doc
    for key in path[:-1]:
        target = target[key]
    if data.draw(st.booleans(), label="drop"):
        del target[path[-1]]
    else:
        target[path[-1]] = json.loads(json.dumps(data.draw(_JSON)))
    return doc


class TestSpecDocumentFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_documents_decode_or_raise_value_error(
        self, data, valid_docs
    ):
        """Drop any key, or replace any leaf or subtree with any JSON
        value: the decoder either returns a spec whose wire round trip
        keeps its cache key, or raises ValueError, never another error
        (the server answers a ValueError with a 400)."""
        doc = mutated_doc(data, valid_docs)
        try:
            spec = spec_from_doc(doc)
        except ValueError:
            return
        ml_model = doc["ml_model"] if spec.ml_model_path else None
        again = spec_from_doc(
            json.loads(json.dumps(spec_to_doc(spec, ml_model=ml_model)))
        )
        assert again == spec
        assert job_key(again.payload()) == job_key(spec.payload())


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
            with ServeClient(server.host, server.port) as client:
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
