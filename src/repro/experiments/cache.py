"""Persistent, content-keyed experiment result cache.

Completed simulation jobs are memoised so re-running a figure or
resuming an interrupted sweep is near-free.  The key is a stable
SHA-256 over the *content* of the job — the full serialized
:class:`~repro.config.PearlConfig`, the trace parameters, every variant
knob and a code-version salt — so any change to the inputs (or a salt
bump after a simulator change) misses cleanly instead of returning
stale numbers.

Each entry is a small ``meta`` JSON document plus a ``blob``:

* ``blob`` — the job's result document
  (:func:`~repro.experiments.service.spec_codec.result_to_bytes`):
  compact JSON with the arrays packed, byte for byte what
  ``pearl-sim serve`` streams for the job;
* ``meta`` — the entry format, the job's spec payload *and the blob's
  SHA-256*; committed last, so it doubles as the commit record and a
  mixed meta/blob pair (two crashed writers interleaving) is detected
  by digest instead of silently decoded.

Where the bytes live is pluggable
(:mod:`repro.experiments.service.stores`): the default
:class:`~repro.experiments.service.stores.LocalDirStore` keeps the
historical ``<key>.json`` + ``<key>.npz`` directory layout (the blob
file kept its old name), and
:class:`~repro.experiments.service.stores.SqliteStore` packs a shared
cache into one WAL-journalled file.  Both are safe under concurrent
writers — racing same-key writers carry identical content (results are
deterministic), and a reader always sees a complete pair or a clean
miss.

Corrupted or truncated entries — a killed run, a partial copy, a
digest mismatch — are detected on read, dropped (self-heal) and
recomputed rather than crashed on.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..obs import OBS
from .service.spec_codec import result_from_bytes, result_to_bytes
from .service.stores import CacheStore, LocalDirStore, StoreStats, open_store

#: Bump when a simulator change invalidates previously cached results.
CODE_VERSION = "pearl-experiments-1"

#: On-disk schema version of one cache entry.  Format 2 added the
#: ``blob_sha256`` commit digest; format 3 made the blob the result
#: document.  A hit serves the blob without parsing it, so any change to
#: the document's shape bumps this too.  Older entries self-heal on read.
ENTRY_FORMAT = 3


def canonical_json(payload: Any) -> str:
    """Deterministic JSON text for hashing (sorted keys, no whitespace)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def job_key(payload: Dict[str, Any], salt: str = CODE_VERSION) -> str:
    """Stable content hash of a job payload under a code-version salt."""
    digest = hashlib.sha256()
    digest.update(salt.encode("utf-8"))
    digest.update(b"\0")
    digest.update(canonical_json(payload).encode("utf-8"))
    return digest.hexdigest()


def file_digest(path: Union[str, Path]) -> str:
    """SHA-256 of a file's bytes (keys ML model artifacts by content)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def default_cache_dir() -> Path:
    """Cache directory (override: ``PEARL_RESULT_CACHE_DIR``)."""
    return Path(
        os.environ.get("PEARL_RESULT_CACHE_DIR", ".pearl_result_cache")
    )


def default_store() -> CacheStore:
    """The process-default backend (``PEARL_RESULT_CACHE_BACKEND``).

    The env var accepts the same ``dir:PATH`` / ``sqlite:PATH`` syntax
    as ``--cache-backend``; unset, the historical directory layout
    under :func:`default_cache_dir` is used.
    """
    backend = os.environ.get("PEARL_RESULT_CACHE_BACKEND", "")
    if backend:
        return open_store(backend)
    return LocalDirStore(default_cache_dir())


class ResultCache:
    """Store-backed memoisation of :class:`~.parallel.JobResult` objects.

    ``get``/``put`` take the job spec itself; keys are derived from its
    content payload.  Entries hold the result document, whose floats
    round-trip exactly, so a cache hit is bit-identical to the original
    computation.
    """

    def __init__(
        self,
        directory: Union[str, Path, None] = None,
        salt: str = CODE_VERSION,
        store: Union[str, CacheStore, None] = None,
    ) -> None:
        if store is not None:
            self.store = open_store(store)
        elif directory is not None:
            self.store = LocalDirStore(directory)
        else:
            self.store = default_store()
        self.salt = salt
        self.hits = 0
        self.misses = 0
        self.errors = 0

    @property
    def directory(self) -> Path:
        """Location of the backing store (directory backend: its path)."""
        return Path(self.store.location())

    # -- keys and paths -------------------------------------------------------

    def key_for(
        self, spec, with_payload: bool = False
    ) -> Union[str, Tuple[str, Dict[str, Any]]]:
        """Content key of one job spec under this cache's salt.

        With ``with_payload``, return ``(key, payload)``: a caller that
        keys a job and later stores its result hands the payload to
        :meth:`put_by_key` instead of computing it again (an ML job's
        payload hashes its model file).
        """
        payload = spec.payload()
        key = job_key(payload, salt=self.salt)
        return (key, payload) if with_payload else key

    # -- lookup ---------------------------------------------------------------

    def get(self, spec):
        """The cached :class:`JobResult` for ``spec``, or ``None``."""
        return self.get_by_key(self.key_for(spec), decode=result_from_bytes)

    def get_by_key(
        self,
        key: str,
        decode: Optional[Callable[[bytes], Any]] = None,
    ):
        """The verified result document stored under ``key``, or ``None``.

        The bytes are checked, not parsed: the meta document must name
        this :data:`ENTRY_FORMAT` and the blob's SHA-256.  With
        ``decode``, its value for the bytes is returned instead.  Any
        unreadable entry (bad meta JSON, an older format, a meta/blob
        digest mismatch from a torn pair, bytes ``decode`` rejects with
        :class:`ValueError`) counts as a miss: the stale entry is
        deleted (self-heal) and the caller recomputes.
        """
        entry = self.store.get(key)
        if entry is None:
            self.misses += 1
            self._count("misses")
            return None
        meta, document = entry
        try:
            doc = json.loads(meta)
            if type(doc) is not dict or doc.get("format") != ENTRY_FORMAT:
                raise ValueError("unknown cache entry format")
            if doc.get("blob_sha256") != hashlib.sha256(document).hexdigest():
                raise ValueError("blob digest mismatch (torn entry)")
            value = document if decode is None else decode(document)
        except ValueError:
            self.errors += 1
            self.misses += 1
            self._count("errors")
            self._count("misses")
            self._count("evictions")
            self.store.delete(key)
            return None
        self.hits += 1
        self._count("hits")
        return value

    def put(self, spec, result) -> bytes:
        """Persist one completed job result; return the stored document."""
        key, payload = self.key_for(spec, with_payload=True)
        return self.put_by_key(key, result, spec_payload=payload)

    def put_by_key(
        self,
        key: str,
        result,
        spec_payload: Optional[Dict[str, Any]] = None,
    ) -> bytes:
        """Persist a result under a precomputed key; return its document."""
        document = result_to_bytes(result)
        meta: Dict[str, Any] = {
            "format": ENTRY_FORMAT,
            # Binds this meta document to exactly this blob, so a reader
            # can reject any meta/blob interleaving from crashed or
            # racing writers.
            "blob_sha256": hashlib.sha256(document).hexdigest(),
        }
        if spec_payload is not None:
            meta["spec"] = spec_payload
        self.store.put(
            key, (json.dumps(meta, sort_keys=True) + "\n").encode("utf-8"),
            document,
        )
        self._count("writes")
        return document

    # -- management -----------------------------------------------------------

    def stats(self) -> StoreStats:
        """Shape of the backing store (entries, bytes)."""
        return self.store.stats()

    def prune(
        self,
        max_bytes: Optional[int] = None,
        older_than: Optional[float] = None,
        now: Optional[float] = None,
    ) -> "tuple[int, int]":
        """Delete entries by age and/or size budget.

        ``older_than`` drops every entry whose mtime is more than that
        many seconds before ``now``; ``max_bytes`` then evicts
        oldest-first until the store fits the budget.  Returns
        ``(entries_removed, bytes_removed)``.
        """
        import time as _time

        if now is None:
            now = _time.time()
        entries = []
        for key in list(self.store.keys()):
            info = self.store.entry_info(key)
            if info is None:
                continue
            entries.append((key, info[0], info[1]))
        removed = 0
        removed_bytes = 0
        kept = []
        for key, size, mtime in entries:
            if older_than is not None and (now - mtime) > older_than:
                self.store.delete(key)
                removed += 1
                removed_bytes += size
            else:
                kept.append((key, size, mtime))
        if max_bytes is not None:
            total = sum(size for _, size, _ in kept)
            # Oldest first, so the working set survives the budget cut.
            for key, size, _ in sorted(kept, key=lambda e: e[2]):
                if total <= max_bytes:
                    break
                self.store.delete(key)
                total -= size
                removed += 1
                removed_bytes += size
        if removed:
            self._count("evictions", removed)
        return removed, removed_bytes

    @staticmethod
    def _count(event: str, amount: int = 1) -> None:
        """Mirror a cache event into the telemetry registry (if enabled)."""
        if OBS.enabled:
            OBS.registry.counter(
                f"engine/cache_{event}",
                help="result-cache lookups by outcome",
            ).inc(amount)
