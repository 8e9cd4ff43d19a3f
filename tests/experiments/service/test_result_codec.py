"""The result document: the one encoding of a ``JobResult``.

The result cache stores these bytes as an entry's blob and
``pearl-sim serve`` streams them unchanged, so decoding them must give
back the computed result bit for bit, and anything that is not such a
document must be a :class:`ValueError`, never another exception.
"""

from __future__ import annotations

import base64
import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.cache import ENTRY_FORMAT, ResultCache
from repro.experiments.parallel import JobResult
from repro.experiments.service.spec_codec import (
    RESULT_DOC_FORMAT,
    result_from_bytes,
    result_from_doc,
    result_to_bytes,
    result_to_doc,
)
from repro.noc.packet import CoreType
from repro.noc.stats import NetworkStats

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
FINITE = st.floats(allow_nan=False)
#: Every float an ML array may hold, edge values weighted in.
ML_VALUES = st.one_of(
    st.floats(),
    st.sampled_from(
        [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308]
    ),
)
#: Long arrays (thousands of elements, several deflate blocks), built
#: from a drawn seed so they cost the property no generation time.
LONG_LATENCIES = st.builds(
    lambda seed, n: np.random.default_rng(seed)
    .integers(-(2**63), 2**63 - 1, size=n, endpoint=True)
    .tolist(),
    st.integers(0, 2**32),
    st.integers(1_000, 5_000),
)
#: Random IEEE bit patterns: NaN payloads, infinities, subnormals.
LONG_ML = st.builds(
    lambda seed, n: np.random.default_rng(seed)
    .integers(0, 2**64, size=n, dtype=np.uint64)
    .view("<f8")
    .tolist(),
    st.integers(0, 2**32),
    st.integers(1_000, 5_000),
)
JSON_LEAVES = st.one_of(st.none(), st.booleans(), INT64, FINITE, st.text())
JSON_DICTS = st.dictionaries(
    st.text(),
    st.recursive(
        JSON_LEAVES,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(), inner, max_size=3),
        max_leaves=8,
    ),
    max_size=4,
)


@st.composite
def network_stats(draw):
    stats = NetworkStats()
    for core in CoreType:
        counter = stats.counters[core]
        counter.packets_injected = draw(INT64)
        counter.flits_delivered = draw(INT64)
        counter.total_latency = draw(INT64)
    stats.final_cycle = draw(INT64)
    stats.crc_errors = draw(INT64)
    stats.laser_energy_j = draw(FINITE)
    stats.ml_energy_j = draw(FINITE)
    stats._latencies = draw(st.lists(INT64, max_size=40) | LONG_LATENCIES)
    return stats


@st.composite
def job_results(draw):
    return JobResult(
        kind=draw(st.sampled_from(["pearl", "cmesh", "mwsr", "trace"])),
        stats=draw(st.none() | network_stats()),
        state_residency=draw(
            st.dictionaries(st.integers(0, 64), FINITE, max_size=5)
        ),
        mean_laser_power_w=draw(FINITE),
        laser_stall_cycles=draw(INT64),
        ml_predictions=draw(st.lists(ML_VALUES, max_size=50) | LONG_ML),
        ml_labels=draw(st.lists(ML_VALUES, max_size=50) | LONG_ML),
        drift_events=draw(INT64),
        drift_retraining_recommended=draw(st.booleans()),
        fallback_windows=draw(INT64),
        retrain_events=draw(INT64),
        retrained_model_ids=draw(st.lists(st.text(), max_size=4)),
        extras=draw(st.none() | JSON_DICTS),
        telemetry=draw(st.none() | JSON_DICTS),
    )


#: The drift and retraining outcome a pearl job reports.
LIFECYCLE_FIELDS = (
    "drift_events",
    "drift_retraining_recommended",
    "fallback_windows",
    "retrain_events",
    "retrained_model_ids",
)


def _bits(values) -> bytes:
    """The IEEE-754 bytes of a float list (tells -0.0 from 0.0, NaNs apart)."""
    return np.asarray(values, dtype="<f8").tobytes()


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(job_results())
    def test_stored_bytes_decode_bit_for_bit(self, result):
        document = result_to_bytes(result)
        # One ASCII line: the server splices it into an NDJSON event.
        assert b"\n" not in document and document.isascii()
        decoded = result_from_bytes(document)
        assert decoded.kind == result.kind
        if result.stats is None:
            assert decoded.stats is None
        else:
            # repr() spells every float exactly, -0.0 included.
            assert repr(decoded.stats.to_dict()) == repr(
                result.stats.to_dict()
            )
        assert repr(sorted(decoded.state_residency.items())) == repr(
            sorted(result.state_residency.items())
        )
        assert repr(decoded.mean_laser_power_w) == repr(
            result.mean_laser_power_w
        )
        assert decoded.laser_stall_cycles == result.laser_stall_cycles
        assert _bits(decoded.ml_predictions) == _bits(result.ml_predictions)
        assert _bits(decoded.ml_labels) == _bits(result.ml_labels)
        for name in LIFECYCLE_FIELDS:
            assert getattr(decoded, name) == getattr(result, name), name
            assert type(getattr(decoded, name)) is type(getattr(result, name))
        assert decoded.extras == result.extras
        assert decoded.telemetry == result.telemetry

    def test_document_shape_is_pinned_to_the_entry_format(self):
        """A hit streams the stored document without parsing it, so a
        change to the document's shape must bump ``ENTRY_FORMAT`` (and
        ``RESULT_DOC_FORMAT``), or older entries would be served as is.
        Update this pin together with those bumps."""
        doc = result_to_doc(JobResult(kind="trace"))
        assert (ENTRY_FORMAT, RESULT_DOC_FORMAT, sorted(doc)) == (
            4,
            2,
            [
                "drift_events",
                "drift_retraining_recommended",
                "extras",
                "fallback_windows",
                "format",
                "kind",
                "laser_stall_cycles",
                "latencies",
                "mean_laser_power_w",
                "ml_labels",
                "ml_predictions",
                "retrain_events",
                "retrained_model_ids",
                "state_residency",
                "stats",
                "telemetry",
            ],
        )

    def test_put_returns_the_stored_blob(self, tmp_path):
        result = JobResult(kind="trace", extras={"packets": 3})
        cache = ResultCache(store=f"dir:{tmp_path}")
        stored = cache.put_by_key("k", result)
        assert stored == result_to_bytes(result)
        assert cache.store.get("k")[1] == stored
        assert cache.get_by_key("k") == stored


def _packed(raw: bytes) -> str:
    return base64.b64encode(zlib.compress(raw)).decode("ascii")


def _doc(**changes):
    doc = result_to_doc(JobResult(kind="trace", ml_predictions=[1.5]))
    doc.update(changes)
    return doc


REJECTED = [
    ("format-missing", lambda doc: doc.pop("format")),
    ("format-wrong", lambda doc: doc.update(format=RESULT_DOC_FORMAT + 1)),
    ("format-string", lambda doc: doc.update(format=str(RESULT_DOC_FORMAT))),
    ("format-bool", lambda doc: doc.update(format=True)),
    ("not-base64", lambda doc: doc.update(latencies="not*base64!")),
    ("not-a-string", lambda doc: doc.update(ml_labels=[1.0, 2.0])),
    (
        "broken-deflate",
        lambda doc: doc.update(
            ml_predictions=base64.b64encode(b"not a deflate stream").decode()
        ),
    ),
    (
        "truncated-deflate",
        lambda doc: doc.update(
            latencies=base64.b64encode(zlib.compress(bytes(64))[:-4]).decode()
        ),
    ),
    ("latency-width", lambda doc: doc.update(latencies=_packed(bytes(12)))),
    ("ml-width", lambda doc: doc.update(ml_labels=_packed(bytes(7)))),
    ("field-missing", lambda doc: doc.pop("mean_laser_power_w")),
    ("stats-mistyped", lambda doc: doc.update(stats=[1, 2])),
    ("lifecycle-missing", lambda doc: doc.pop("retrain_events")),
    ("drift-events-float", lambda doc: doc.update(drift_events=1.0)),
    ("drift-events-bool", lambda doc: doc.update(drift_events=True)),
    (
        "recommended-int",
        lambda doc: doc.update(drift_retraining_recommended=1),
    ),
    ("model-ids-string", lambda doc: doc.update(retrained_model_ids="ab")),
    ("model-ids-ints", lambda doc: doc.update(retrained_model_ids=[1])),
]


class TestRejection:
    @pytest.mark.parametrize(
        "mutate", [m for _, m in REJECTED], ids=[c for c, _ in REJECTED]
    )
    def test_malformed_document_is_a_value_error(self, mutate):
        doc = _doc()
        mutate(doc)
        with pytest.raises(ValueError):
            result_from_doc(doc)
        with pytest.raises(ValueError):
            result_from_bytes(json.dumps(doc).encode())

    @pytest.mark.parametrize(
        "data", [b"", b"{not json", b"[1, 2]", b"\xff\xfe\x00"]
    )
    def test_bytes_that_are_no_document_are_a_value_error(self, data):
        with pytest.raises(ValueError):
            result_from_bytes(data)
