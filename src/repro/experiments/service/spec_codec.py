"""JSON forms of a job: the spec a client sends, the result it gets back.

``pearl-sim serve`` accepts simulation specs over HTTP; this module is
the strict, loss-free codec between the frozen
:class:`~repro.experiments.parallel.JobSpec` dataclass and its JSON
document.  Every field travels in its :mod:`repro.config_io` form,
derived from the dataclass fields and their type hints (config,
trace parameters, variant knobs and fault schedules alike), so a spec
decoded from the wire hashes to the *same* content key as the
in-process original, which is what lets served requests share cache
entries (and coalesce) with local sweeps.  Decoding is strict: an
unknown key or a value of the wrong JSON type is a :class:`ValueError`
naming the field, never a coercion into a different job.

What is not a field lives here: the ``format`` tag, checked strictly,
and the model.  A client cannot ship a filesystem path into the
server, so documents carry no ``ml_model_path``; they reference
registry models by tag/id (``ml_model``) and the server resolves them
against its local :mod:`repro.ml.lifecycle` registry at decode time,
and again (:func:`model_still_keyed`) whenever it reuses an earlier
decode of the same document.

The result document is the one encoding of a
:class:`~repro.noc.network.JobResult`: the result cache stores
its bytes as an entry's blob and ``pearl-sim serve`` streams those
bytes unchanged, on hits and misses alike.
"""

from __future__ import annotations

import base64
import json
import zlib
from typing import TYPE_CHECKING, Any, Dict, Optional

import numpy as np

from ...config_io import from_doc, to_doc
from ...noc.network import JobResult
from ...noc.stats import NetworkStats

if TYPE_CHECKING:
    from ..parallel import JobSpec

#: Wire-format version tag, checked strictly on decode.
SPEC_DOC_FORMAT = 1


def spec_to_doc(
    spec: JobSpec, ml_model: Optional[str] = None
) -> Dict[str, Any]:
    """JSON-able document form of one job spec.

    ``ml_model`` names the registry tag/id a remote decoder should
    resolve; required when the spec carries an ``ml_model_path``
    (paths do not travel).
    """
    if spec.ml_model_path is not None and ml_model is None:
        raise ValueError(
            "spec carries ml_model_path; pass ml_model=<registry tag/id> "
            "so the receiving side can resolve it locally"
        )
    doc = to_doc(spec, skip=("ml_model_path",))
    doc["format"] = SPEC_DOC_FORMAT
    doc["ml_model"] = ml_model
    return doc


def spec_from_doc(doc: Dict[str, Any]) -> JobSpec:
    """Rebuild a :class:`JobSpec` from its wire document, strictly.

    Every malformation raises :class:`ValueError`: a wrong or missing
    ``format``, an unknown or missing key, a value of the wrong JSON
    type, an unknown ``ml_model`` reference, or anything ``JobSpec``,
    ``TraceSpec`` or config validation refuses.  ``ml_model``
    references resolve through the default model registry.
    """
    if type(doc) is not dict:
        raise ValueError("spec document must be a JSON object")
    fields = dict(doc)
    version = fields.pop("format", None)
    if type(version) is not int or version != SPEC_DOC_FORMAT:
        raise ValueError(f"unknown spec document format: {version!r}")
    # Imported here: the result cache imports this module, and the job
    # engine imports the result cache.
    from ..parallel import JobSpec

    ml_model_path = _model_path(fields.pop("ml_model", None))
    return from_doc(JobSpec, fields, ml_model_path=ml_model_path)


def _model_path(ref: Any) -> Optional[str]:
    """The local model file a document's ``ml_model`` reference names."""
    if ref is None:
        return None
    if type(ref) is not str:
        raise ValueError(f"ml_model must be a string or null, got {ref!r}")
    from ...ml.lifecycle import default_registry

    # One resolution: a tag costs one read of tags.json.
    try:
        return str(default_registry().model_path(ref))
    except KeyError as exc:
        raise ValueError(f"ml_model: {exc.args[0]}") from None


def model_still_keyed(
    ref: Optional[str], spec: JobSpec, payload: Dict[str, Any]
) -> bool:
    """Whether a document's ``ml_model`` reference still names the model
    file ``spec`` runs, holding the bytes its cache ``payload`` keyed.

    ``spec`` and ``payload`` come from an earlier decode and key of the
    same document.  The reference is resolved again and the file hashed
    again, as a fresh decode and key would, so a moved tag, a rewritten
    model file or a newly ambiguous id prefix gives ``False``, and so
    does a reference that no longer resolves or a file that cannot be
    read.  A document without a model reference always holds.
    """
    if ref is None:
        return True
    # Imported here for the same reason as JobSpec above.
    from ..cache import file_digest

    try:
        path = _model_path(ref)
        return (
            path == spec.ml_model_path
            and file_digest(path) == payload["ml_model"]
        )
    except (ValueError, OSError):
        return False


# ---------------------------------------------------------------------------
# Result documents (cache blob and server -> client)
# ---------------------------------------------------------------------------

#: Result-document version tag, checked strictly on decode.  A cache hit
#: streams the stored document without parsing it, so any change to the
#: document's shape must also bump ``cache.ENTRY_FORMAT``.  Format 2
#: added the drift and retraining outcome of a pearl job.
RESULT_DOC_FORMAT = 2

#: The packed arrays: little-endian fixed-width elements.
_LATENCY_DTYPE = "<i8"
_ML_DTYPE = "<f8"

#: Deflate level of the packed arrays.  On 20k-cycle runs level 5 keeps
#: an entry within 1.35x the size of the npz entry it replaced and
#: writes it in 60 % of the time; level 1 writes faster but reached
#: 1.7x, and level 6 compresses half as fast for 5 % fewer bytes.
_DEFLATE_LEVEL = 5


def result_to_doc(result: JobResult) -> Dict[str, Any]:
    """JSON-able form of a :class:`JobResult` (loss-free).

    Scalars travel as JSON numbers (floats round-trip through ``repr``);
    the three arrays travel packed, as base64 of their deflated
    little-endian bytes, so every float keeps its IEEE bits.
    """
    stats = result.stats
    return {
        "format": RESULT_DOC_FORMAT,
        "kind": result.kind,
        "stats": (
            stats.to_dict(include_latencies=False)
            if stats is not None
            else None
        ),
        "state_residency": {
            str(state): fraction
            for state, fraction in result.state_residency.items()
        },
        "mean_laser_power_w": result.mean_laser_power_w,
        "laser_stall_cycles": result.laser_stall_cycles,
        "extras": result.extras,
        "telemetry": result.telemetry,
        "latencies": _pack(
            stats._latencies if stats is not None else (), _LATENCY_DTYPE
        ),
        "ml_predictions": _pack(result.ml_predictions, _ML_DTYPE),
        "ml_labels": _pack(result.ml_labels, _ML_DTYPE),
        "drift_events": result.drift_events,
        "drift_retraining_recommended": result.drift_retraining_recommended,
        "fallback_windows": result.fallback_windows,
        "retrain_events": result.retrain_events,
        "retrained_model_ids": list(result.retrained_model_ids),
    }


def result_to_bytes(result: JobResult) -> bytes:
    """The canonical result document: compact JSON with sorted keys.

    Pure ASCII with no raw newline, so it splices into an NDJSON line
    as is.
    """
    return json.dumps(
        result_to_doc(result), sort_keys=True, separators=(",", ":")
    ).encode("ascii")


def result_from_doc(doc: Dict[str, Any]) -> JobResult:
    """Rebuild a :class:`JobResult` from :func:`result_to_doc` output.

    Strict: a wrong or missing ``format``, a missing field, a
    lifecycle field of the wrong JSON type, an array that is not base64
    of a deflate stream or whose byte length is not a whole number of
    elements all raise :class:`ValueError`.
    """
    if type(doc) is not dict:
        raise ValueError("result document must be a JSON object")
    version = doc.get("format")
    if type(version) is not int or version != RESULT_DOC_FORMAT:
        raise ValueError(f"unknown result document format: {version!r}")
    try:
        latencies = _unpack(doc["latencies"], _LATENCY_DTYPE, "latencies")
        model_ids = _typed(doc, "retrained_model_ids", list)
        if not all(type(ref) is str for ref in model_ids):
            raise ValueError("retrained_model_ids must hold strings")
        stats = None
        if doc["stats"] is not None:
            stats = NetworkStats.from_dict(doc["stats"], latencies=latencies)
        return JobResult(
            kind=doc["kind"],
            stats=stats,
            state_residency={
                int(state): float(fraction)
                for state, fraction in doc["state_residency"].items()
            },
            mean_laser_power_w=float(doc["mean_laser_power_w"]),
            laser_stall_cycles=int(doc["laser_stall_cycles"]),
            ml_predictions=_unpack(
                doc["ml_predictions"], _ML_DTYPE, "ml_predictions"
            ),
            ml_labels=_unpack(doc["ml_labels"], _ML_DTYPE, "ml_labels"),
            drift_events=_typed(doc, "drift_events", int),
            drift_retraining_recommended=_typed(
                doc, "drift_retraining_recommended", bool
            ),
            fallback_windows=_typed(doc, "fallback_windows", int),
            retrain_events=_typed(doc, "retrain_events", int),
            retrained_model_ids=model_ids,
            extras=doc["extras"],
            telemetry=doc["telemetry"],
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed result document: {exc!r}") from None


def result_from_bytes(data: bytes) -> JobResult:
    """Decode :func:`result_to_bytes` output (``ValueError`` if malformed)."""
    return result_from_doc(json.loads(data))


def _typed(doc: Dict[str, Any], name: str, kind: type) -> Any:
    """``doc[name]``, which must be exactly a ``kind`` (no bool for int)."""
    value = doc[name]
    if type(value) is not kind:
        raise ValueError(
            f"{name} must be a {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _pack(values, dtype: str) -> str:
    raw = np.asarray(values, dtype=dtype).tobytes()
    packed = zlib.compress(raw, _DEFLATE_LEVEL)
    return base64.b64encode(packed).decode("ascii")


def _unpack(text: Any, dtype: str, name: str) -> list:
    if type(text) is not str:
        raise ValueError(
            f"{name} must be a base64 string, got {type(text).__name__}"
        )
    try:
        raw = zlib.decompress(base64.b64decode(text, validate=True))
    except (ValueError, zlib.error) as exc:
        # zlib.error is not a ValueError; base64's binascii.Error is.
        raise ValueError(
            f"{name} is not base64 of a deflate stream: {exc}"
        ) from None
    width = np.dtype(dtype).itemsize
    if len(raw) % width:
        raise ValueError(
            f"{name} holds {len(raw)} bytes, not a whole number of "
            f"{width}-byte elements"
        )
    return np.frombuffer(raw, dtype=dtype).tolist()
