"""JSON wire form of a :class:`~repro.experiments.parallel.JobSpec`.

``pearl-sim serve`` accepts simulation specs over HTTP; this module is
the strict, loss-free codec between the frozen dataclass and its JSON
document.  The codec round-trips every field — config (via
:mod:`repro.config_io`), trace parameters, variant knobs, fault
schedules — so a spec decoded from the wire hashes to the *same*
content key as the in-process original, which is what lets served
requests share cache entries (and coalesce) with local sweeps.

The one deliberate exception is ``ml_model_path``: a client cannot ship
a filesystem path into the server, so documents reference registry
models by tag/id (``ml_model``) and the server resolves them against
its local :mod:`repro.ml.lifecycle` registry at decode time.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ...config_io import config_from_dict, config_to_dict
from ...faults import FaultSchedule
from ..parallel import JobSpec, TraceSpec

#: Wire-format version tag, checked strictly on decode.
SPEC_DOC_FORMAT = 1

_SPEC_KEYS = {
    "format",
    "kind",
    "config",
    "trace",
    "seed",
    "power_policy",
    "use_dynamic_bandwidth",
    "static_state",
    "allow_8wl",
    "ml_model",
    "faults",
    "bandwidth_divisor",
    "wavelength_state",
    "activity",
    "settle_cycles",
    "settle_steps",
}

_TRACE_KEYS = {"kind", "cpu", "gpu", "rate", "seed", "algorithm"}

_MISSING = object()

_JSON_NAMES = {
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    str: "a string",
    None: "null",
}

#: JSON numbers: an integer or a float literal (never a boolean).
_NUMBER = (int, float)


def _typed(doc: Dict[str, Any], key: str, kinds: tuple, default: Any) -> Any:
    """``doc[key]`` when its JSON type is one of ``kinds``, else reject.

    JSON booleans decode to Python ``bool``, a subclass of ``int``, so
    they only count as booleans: ``true`` is no seed and ``1`` is no
    switch.  ``None`` in ``kinds`` admits an explicit ``null``.
    """
    value = doc.get(key, _MISSING)
    if value is _MISSING:
        return default
    if value is None:
        ok = None in kinds
    elif isinstance(value, bool):
        ok = bool in kinds
    else:
        ok = any(
            kind is not None and isinstance(value, kind) for kind in kinds
        )
    if not ok:
        names = " or ".join(
            _JSON_NAMES[kind]
            for kind in kinds
            if not (kind is int and float in kinds)
        )
        raise ValueError(f"{key} must be {names}, got {value!r}")
    return value


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
    doc: Dict[str, Any] = {
        "format": SPEC_DOC_FORMAT,
        "kind": spec.kind,
        "config": config_to_dict(spec.config),
        "trace": spec.trace.payload() if spec.trace is not None else None,
        "seed": spec.seed,
        "power_policy": spec.power_policy,
        "use_dynamic_bandwidth": spec.use_dynamic_bandwidth,
        "static_state": spec.static_state,
        "allow_8wl": spec.allow_8wl,
        "ml_model": ml_model,
        "faults": (
            spec.faults.payload()
            if spec.faults is not None and not spec.faults.is_empty
            else None
        ),
        "bandwidth_divisor": spec.bandwidth_divisor,
        "wavelength_state": spec.wavelength_state,
        "activity": spec.activity,
        "settle_cycles": spec.settle_cycles,
        "settle_steps": spec.settle_steps,
    }
    return doc


def spec_from_doc(doc: Dict[str, Any]) -> JobSpec:
    """Rebuild a :class:`JobSpec` from its wire document, strictly.

    Unknown keys are rejected (a typo must not silently change which
    cache entry a request lands on), and so is a value of the wrong
    JSON type: booleans must be ``true``/``false`` and integers integer
    literals, never a string, a float or a boolean that a ``bool()`` or
    ``int()`` coercion would quietly turn into a different job.
    ``ml_model`` references resolve through the default model registry.
    """
    if not isinstance(doc, dict):
        raise ValueError("spec document must be a JSON object")
    if doc.get("format") != SPEC_DOC_FORMAT:
        raise ValueError(
            f"unknown spec document format: {doc.get('format')!r}"
        )
    unknown = set(doc) - _SPEC_KEYS
    if unknown:
        raise ValueError(f"unknown spec fields: {sorted(unknown)}")
    kind = doc.get("kind")
    if kind not in ("pearl", "cmesh", "mwsr", "trace", "thermal"):
        raise ValueError(f"unknown job kind {kind!r}")
    config = config_from_dict(doc["config"])
    trace = None
    trace_doc = doc.get("trace")
    if trace_doc is not None:
        if not isinstance(trace_doc, dict):
            raise ValueError("trace must be a JSON object or null")
        extra = set(trace_doc) - _TRACE_KEYS
        if extra:
            raise ValueError(f"unknown trace fields: {sorted(extra)}")
        # TraceSpec's own validation rejects an unknown kind, benchmark
        # or collective algorithm here, at decode time, before any job
        # runs.
        trace = TraceSpec(
            kind=_typed(trace_doc, "kind", (str,), "pair"),
            cpu=_typed(trace_doc, "cpu", (str, None), None),
            gpu=_typed(trace_doc, "gpu", (str, None), None),
            rate=float(_typed(trace_doc, "rate", _NUMBER, 0.0)),
            seed=_typed(trace_doc, "seed", (int,), 1),
            algorithm=_typed(trace_doc, "algorithm", (str, None), None),
        )
    faults = None
    if doc.get("faults") is not None:
        faults = FaultSchedule.from_dict(doc["faults"])
    ml_model_path = None
    ml_model = _typed(doc, "ml_model", (str, None), None)
    if ml_model is not None:
        from ...ml.lifecycle import default_registry

        registry = default_registry()
        record = registry.record(ml_model)
        ml_model_path = str(registry.model_path(record.model_id))
    return JobSpec(
        kind=kind,
        config=config,
        trace=trace,
        seed=_typed(doc, "seed", (int,), 1),
        power_policy=_typed(doc, "power_policy", (str,), "static"),
        use_dynamic_bandwidth=_typed(
            doc, "use_dynamic_bandwidth", (bool,), True
        ),
        static_state=_typed(doc, "static_state", (int, None), None),
        allow_8wl=_typed(doc, "allow_8wl", (bool, None), None),
        ml_model_path=ml_model_path,
        faults=faults,
        bandwidth_divisor=_typed(doc, "bandwidth_divisor", (int, None), None),
        wavelength_state=_typed(doc, "wavelength_state", (int,), 64),
        activity=float(_typed(doc, "activity", _NUMBER, 0.0)),
        settle_cycles=_typed(doc, "settle_cycles", (int,), 0),
        settle_steps=_typed(doc, "settle_steps", (int,), 1),
    )


# ---------------------------------------------------------------------------
# Result documents (server -> client)
# ---------------------------------------------------------------------------


def result_to_doc(result) -> Dict[str, Any]:
    """JSON-able form of a :class:`JobResult` (loss-free).

    Reuses the cache's scalar/array split; floats survive JSON via
    ``repr`` round-tripping, so a served result is bit-identical to a
    locally computed one.
    """
    from ..cache import _encode_result

    doc, arrays = _encode_result(result)
    doc["arrays"] = {name: array.tolist() for name, array in arrays.items()}
    return doc


def result_from_doc(doc: Dict[str, Any]):
    """Rebuild a :class:`JobResult` from :func:`result_to_doc` output."""
    import numpy as np

    from ..cache import _decode_result

    raw = doc.get("arrays", {})
    arrays = {
        "latencies": np.asarray(raw.get("latencies", []), dtype=np.int64),
        "ml_predictions": np.asarray(
            raw.get("ml_predictions", []), dtype=np.float64
        ),
        "ml_labels": np.asarray(raw.get("ml_labels", []), dtype=np.float64),
    }
    return _decode_result(doc, arrays)
