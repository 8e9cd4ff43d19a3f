"""Content-addressed model registry.

Every trained ridge model is stored as a *versioned artifact*: the
``.npz`` weight archive plus a JSON metadata record holding the
feature schema (hashed, so a schema change can never be silently
served a stale model), the training recipe (window, quick flag, seed,
sample counts, tuned lambda), quality metrics and full run provenance
from :mod:`repro.obs.provenance`.

The model id is a digest of the artifact's *content* — the weight
bytes together with the schema hash and training key — so re-training
with identical inputs lands on the identical id (a no-op ``put``),
while any change to the weights, the feature set or the recipe mints a
new version.  Human-friendly *tags* (``production``, ``candidate``,
...) map onto ids through ``tags.json``; ``promote`` retargets a tag
atomically.

Layout under the registry root (``$PEARL_REGISTRY_DIR``, else
``$PEARL_CACHE_DIR/registry``, else ``.pearl_model_registry/``)::

    objects/<model_id>/model.npz   # RidgeRegression.save archive
    objects/<model_id>/meta.json   # ModelRecord fields
    tags.json                      # {"production": "<model_id>", ...}
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..features import FEATURE_NAMES
from ..ridge import RidgeRegression

PathLike = Union[str, "os.PathLike[str]"]

#: Tag a freshly trained default model is promoted to.
DEFAULT_TAG = "production"


def feature_schema(ml_config=None) -> Dict[str, object]:
    """The deployed feature contract a model was trained against.

    Covers everything that silently changes what the 30-dim input
    vector *means*: the ordered Table III feature names plus the
    :class:`~repro.config.MLConfig` flags that alter collection or
    preprocessing.  Two configs with the same schema produce
    interchangeable models; any difference must force a retrain.
    """
    if ml_config is None:
        from ...config import MLConfig

        ml_config = MLConfig()
    return {
        "names": list(FEATURE_NAMES),
        "num_features": int(ml_config.num_features),
        "standardize": bool(ml_config.standardize_features),
    }


def schema_hash(schema: Optional[Dict[str, object]] = None) -> str:
    """SHA-256 digest of a feature schema's canonical JSON form."""
    if schema is None:
        schema = feature_schema()
    text = json.dumps(schema, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class ModelRecord:
    """One versioned model artifact's metadata (the ``meta.json``)."""

    model_id: str
    created: str
    feature_schema: Dict[str, object]
    schema_hash: str
    training: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, object] = field(default_factory=dict)
    provenance: Dict[str, object] = field(default_factory=dict)
    #: Tags pointing at this record (filled in by the registry on read).
    tags: List[str] = field(default_factory=list)

    def to_json(self) -> str:
        data = asdict(self)
        data.pop("tags")  # tags live in tags.json, not in the record
        return json.dumps(data, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ModelRecord":
        data = json.loads(text)
        data.pop("tags", None)
        return cls(**data, tags=[])


class ModelRegistry:
    """Load/save/list/promote versioned ridge artifacts on disk."""

    def __init__(self, root: Optional[PathLike] = None) -> None:
        self.root = Path(root) if root is not None else _default_root()

    # -- paths ---------------------------------------------------------------

    @property
    def _objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def _tags_path(self) -> Path:
        return self.root / "tags.json"

    def model_path(self, ref: str) -> Path:
        """Path of the ``.npz`` weight archive for a tag/id/prefix."""
        return self._objects_dir / self.resolve(ref) / "model.npz"

    # -- write path ----------------------------------------------------------

    def put(
        self,
        model: RidgeRegression,
        training: Optional[Dict[str, object]] = None,
        metrics: Optional[Dict[str, object]] = None,
        schema: Optional[Dict[str, object]] = None,
        provenance: Optional[Dict[str, object]] = None,
    ) -> ModelRecord:
        """Store a fitted model; idempotent for identical content.

        The id digests the weight bytes + schema hash + training key,
        so a deterministic retrain re-uses the existing version.
        """
        if not model.is_fitted:
            raise ValueError("cannot register an unfitted model")
        schema = schema if schema is not None else feature_schema()
        s_hash = schema_hash(schema)
        training = dict(training or {})
        blob = _model_bytes(model)
        digest = hashlib.sha256()
        digest.update(blob)
        digest.update(s_hash.encode("ascii"))
        digest.update(
            json.dumps(
                training.get("key"), sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
        )
        model_id = digest.hexdigest()[:16]

        obj_dir = self._objects_dir / model_id
        meta_path = obj_dir / "meta.json"
        if meta_path.exists():
            # Idempotent re-put; self-heal a missing or truncated blob
            # (the id already pins the content, so rewriting is safe).
            blob_path = obj_dir / "model.npz"
            if not blob_path.exists() or blob_path.stat().st_size != len(blob):
                blob_path.write_bytes(blob)
            return self._stored_record(model_id, self._read_tags())

        record = ModelRecord(
            model_id=model_id,
            created=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            feature_schema=schema,
            schema_hash=s_hash,
            training=training,
            metrics=dict(metrics or {}),
            provenance=dict(provenance or {}),
        )
        obj_dir.mkdir(parents=True, exist_ok=True)
        (obj_dir / "model.npz").write_bytes(blob)
        _atomic_write(meta_path, record.to_json() + "\n")
        return record

    def promote(self, ref: str, tag: str = DEFAULT_TAG) -> ModelRecord:
        """Point ``tag`` at the model ``ref`` names (atomic retarget)."""
        if not tag or "/" in tag:
            raise ValueError(f"invalid tag {tag!r}")
        tags = self._read_tags()
        model_id = self._resolve(ref, tags)
        tags[tag] = model_id
        self.root.mkdir(parents=True, exist_ok=True)
        _atomic_write(
            self._tags_path, json.dumps(tags, sort_keys=True, indent=2) + "\n"
        )
        return self._stored_record(model_id, tags)

    # -- read path -----------------------------------------------------------

    def resolve(self, ref: str) -> str:
        """Tag, full id or unique id prefix -> model id."""
        return self._resolve(ref, self._read_tags())

    def _resolve(self, ref: str, tags: Dict[str, str]) -> str:
        """:meth:`resolve` against the tags of one ``tags.json`` read."""
        if ref in tags:
            return tags[ref]
        # Match against the stored ids, never a path built from ``ref``:
        # served documents carry references from clients.
        ids = [entry.name for entry in self._iter_object_dirs()]
        if ref in ids:
            return ref
        matches = [model_id for model_id in ids if model_id.startswith(ref)]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise KeyError(f"ambiguous model reference {ref!r}: {matches}")
        raise KeyError(f"unknown model reference {ref!r}")

    def record(self, ref: str) -> ModelRecord:
        """The metadata record for a tag/id/prefix."""
        tags = self._read_tags()
        return self._stored_record(self._resolve(ref, tags), tags)

    def get(self, ref: str) -> RidgeRegression:
        """Load the fitted model a tag/id/prefix names."""
        return RidgeRegression.load(self.model_path(ref))

    def list(self) -> List[ModelRecord]:
        """Every stored record, newest first.

        One pass over the object directories and one ``tags.json``
        read: each entry is a stored id, so nothing is resolved.
        """
        tags = self._read_tags()
        records = []
        for entry in self._iter_object_dirs():
            records.append(self._stored_record(entry.name, tags))
        records.sort(key=lambda r: (r.created, r.model_id), reverse=True)
        return records

    def find_by_key(
        self, key: object, with_schema_hash: Optional[str] = None
    ) -> Optional[ModelRecord]:
        """The newest record whose training key matches, or None.

        ``with_schema_hash`` additionally requires the stored feature
        schema to match — the guard that makes a feature-flag change
        in :class:`~repro.config.MLConfig` force a retrain instead of
        silently serving a model trained against different inputs.
        """
        wanted = json.loads(json.dumps(key))  # canonicalise tuples -> lists
        for record in self.list():
            if record.training.get("key") != wanted:
                continue
            if (
                with_schema_hash is not None
                and record.schema_hash != with_schema_hash
            ):
                continue
            return record
        return None

    def __len__(self) -> int:
        return sum(1 for _ in self._iter_object_dirs())

    # -- internals -----------------------------------------------------------

    def _stored_record(
        self, model_id: str, tags: Dict[str, str]
    ) -> ModelRecord:
        """The record of the stored full id ``model_id``, tagged with
        the tags of ``tags`` (one ``tags.json`` read) that point at it."""
        meta_path = self._objects_dir / model_id / "meta.json"
        record = ModelRecord.from_json(meta_path.read_text())
        record.tags = sorted(t for t, mid in tags.items() if mid == model_id)
        return record

    def _iter_object_dirs(self):
        if not self._objects_dir.is_dir():
            return
        for entry in sorted(self._objects_dir.iterdir()):
            if entry.is_dir() and (entry / "meta.json").exists():
                yield entry

    def _read_tags(self) -> Dict[str, str]:
        try:
            data = json.loads(self._tags_path.read_text())
        except (OSError, ValueError):
            return {}
        return {str(k): str(v) for k, v in data.items()}


def _default_root() -> Path:
    """Registry root honouring the cache-dir isolation conventions."""
    explicit = os.environ.get("PEARL_REGISTRY_DIR")
    if explicit:
        return Path(explicit)
    cache_dir = os.environ.get("PEARL_CACHE_DIR")
    if cache_dir:
        return Path(cache_dir) / "registry"
    return Path(".pearl_model_registry")


def default_registry() -> ModelRegistry:
    """The process-default registry (env-var governed root)."""
    return ModelRegistry()


def _model_bytes(model: RidgeRegression) -> bytes:
    """The model's ``.npz`` serialization as bytes (for hashing/storing)."""
    import io

    buffer = io.BytesIO()
    model.save(buffer)
    return buffer.getvalue()


def _atomic_write(path: Path, text: str) -> None:
    """Write-then-rename so readers never see a torn file."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
