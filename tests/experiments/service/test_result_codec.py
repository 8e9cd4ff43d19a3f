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
#: A latency histogram: sorted distinct values, a count of 1 or more each.
HISTOGRAMS = st.lists(
    st.tuples(st.integers(0, 2**40), st.integers(1, 2**20)),
    max_size=40,
    unique_by=lambda pair: pair[0],
).map(lambda pairs: tuple(zip(*sorted(pairs))) or ((), ()))


def _long_histogram(seed: int, n: int):
    rng = np.random.default_rng(seed)
    values = np.unique(rng.integers(0, 2**40, size=n))
    counts = rng.integers(1, 2**20, size=len(values), endpoint=True)
    return tuple(values.tolist()), tuple(counts.tolist())


#: Long arrays (thousands of elements, several deflate blocks), built
#: from a drawn seed so they cost the property no generation time.
LONG_HISTOGRAMS = st.builds(
    _long_histogram, st.integers(0, 2**32), st.integers(1_000, 5_000)
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
    """Statistics whose counters agree with their latency histogram
    (as a run's do, and as decoding checks)."""
    stats = NetworkStats()
    for core in CoreType:
        counter = stats.counters[core]
        counter.packets_injected = draw(INT64)
        counter.flits_delivered = draw(INT64)
    values, counts = draw(HISTOGRAMS | LONG_HISTOGRAMS)
    stats.latency_values, stats.latency_counts = values, counts
    delivered = sum(counts)
    total = sum(v * c for v, c in zip(values, counts))
    cpu = stats.counters[CoreType.CPU]
    gpu = stats.counters[CoreType.GPU]
    cpu.packets_delivered = draw(st.integers(0, delivered))
    gpu.packets_delivered = delivered - cpu.packets_delivered
    cpu.total_latency = draw(st.integers(0, total))
    gpu.total_latency = total - cpu.total_latency
    stats.final_cycle = draw(INT64)
    stats.crc_errors = draw(INT64)
    stats.laser_energy_j = draw(FINITE)
    stats.ml_energy_j = draw(FINITE)
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
            5,
            3,
            [
                "drift_events",
                "drift_retraining_recommended",
                "extras",
                "fallback_windows",
                "format",
                "kind",
                "laser_stall_cycles",
                "latency_histogram",
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


def _histogram(*numbers: int) -> dict:
    """A ``latency_histogram`` field packing ``numbers`` as ``<i8``."""
    return {"latency_histogram": _packed(np.array(numbers, "<i8").tobytes())}


def _doc(**changes):
    """A valid document whose stats hold three packets, latencies 10,
    10 and 20: histogram values (10, 20), counts (2, 1), total 40."""
    stats = NetworkStats()
    cpu = stats.counters[CoreType.CPU]
    cpu.packets_delivered, cpu.total_latency = 3, 40
    stats.latency_values, stats.latency_counts = (10, 20), (2, 1)
    doc = result_to_doc(
        JobResult(kind="pearl", stats=stats, ml_predictions=[1.5])
    )
    doc.update(changes)
    return doc


REJECTED = [
    ("format-missing", lambda doc: doc.pop("format")),
    ("format-wrong", lambda doc: doc.update(format=RESULT_DOC_FORMAT + 1)),
    ("format-string", lambda doc: doc.update(format=str(RESULT_DOC_FORMAT))),
    ("format-bool", lambda doc: doc.update(format=True)),
    ("not-base64", lambda doc: doc.update(latency_histogram="not*base64!")),
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
            latency_histogram=base64.b64encode(
                zlib.compress(bytes(64))[:-4]
            ).decode()
        ),
    ),
    (
        "latency-width",
        lambda doc: doc.update(latency_histogram=_packed(bytes(12))),
    ),
    # Each histogram below agrees with the stats (3 packets, total 40)
    # in every respect but the one its id names.
    ("histogram-odd", lambda doc: doc.update(_histogram(10, 20, 2))),
    ("histogram-negative", lambda doc: doc.update(_histogram(-5, 50, 2, 1))),
    ("histogram-unsorted", lambda doc: doc.update(_histogram(20, 10, 1, 2))),
    (
        "histogram-repeated",
        lambda doc: doc.update(_histogram(10, 10, 20, 1, 1, 1)),
    ),
    (
        "histogram-zero-count",
        lambda doc: doc.update(_histogram(10, 15, 20, 2, 0, 1)),
    ),
    (
        "histogram-negative-count",
        lambda doc: doc.update(_histogram(5, 10, 20, 2, -1, 2)),
    ),
    ("histogram-count-sum", lambda doc: doc.update(_histogram(10, 4))),
    (
        "histogram-latency-sum",
        lambda doc: doc.update(_histogram(10, 21, 2, 1)),
    ),
    ("histogram-without-stats", lambda doc: doc.update(stats=None)),
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
