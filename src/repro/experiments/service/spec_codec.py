"""JSON wire form of a :class:`~repro.experiments.parallel.JobSpec`.

``pearl-sim serve`` accepts simulation specs over HTTP; this module is
the strict, loss-free codec between the frozen dataclass and its JSON
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
against its local :mod:`repro.ml.lifecycle` registry at decode time.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ...config_io import from_doc, to_doc
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
    ml_model_path = _model_path(fields.pop("ml_model", None))
    return from_doc(JobSpec, fields, ml_model_path=ml_model_path)


def _model_path(ref: Any) -> Optional[str]:
    """The local model file a document's ``ml_model`` reference names."""
    if ref is None:
        return None
    if type(ref) is not str:
        raise ValueError(f"ml_model must be a string or null, got {ref!r}")
    from ...ml.lifecycle import default_registry

    registry = default_registry()
    try:
        record = registry.record(ref)
    except KeyError as exc:
        raise ValueError(f"ml_model: {exc.args[0]}") from None
    return str(registry.model_path(record.model_id))


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
