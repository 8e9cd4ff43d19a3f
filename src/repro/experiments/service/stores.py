"""Pluggable content-addressed cache store backends.

A store holds the byte-level form of one cache entry per key: a small
``meta`` JSON document and a ``blob`` (the job's result document).
:class:`~repro.experiments.cache.ResultCache` handles all encoding and
integrity checking above this layer; a store only promises

* **atomic visibility** — a concurrent reader sees either a complete
  pair or nothing, never a half-written entry;
* **last-writer-wins** under concurrent same-key writers (entries are
  content-addressed, so racing writers carry identical payloads and
  either outcome is correct);
* enumeration and deletion, so ``pearl-sim cache stats|prune`` can
  manage a shared store.

Two backends ship: :class:`LocalDirStore` (the historical
``<key>.json`` + ``<key>.npz`` directory layout) and
:class:`SqliteStore` (one portable file, WAL-journalled, safe across
processes).  :func:`open_store` resolves a backend from a URL-ish
string so every CLI surface accepts ``--cache-backend dir:PATH`` or
``sqlite:PATH``.
"""

from __future__ import annotations

import os
import sqlite3
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union


@dataclass
class StoreStats:
    """Aggregate shape of one store, for ``pearl-sim cache stats``."""

    backend: str
    location: str
    entries: int
    total_bytes: int

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "location": self.location,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
        }


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write via a same-directory temp file + ``os.replace``.

    ``os.replace`` is atomic on POSIX and Windows, so a reader opening
    ``path`` sees either the old complete content or the new complete
    content — never a partial write, even with many racing writers.
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class CacheStore:
    """Byte-level key/value interface every backend implements."""

    backend = "abstract"

    def get(self, key: str) -> Optional[Tuple[bytes, bytes]]:
        """``(meta, blob)`` for ``key``, or ``None`` when absent.

        An entry missing either half counts as absent — the caller
        self-heals by deleting and recomputing.
        """
        raise NotImplementedError

    def put(self, key: str, meta: bytes, blob: bytes) -> None:
        """Persist one complete entry (atomically visible)."""
        raise NotImplementedError

    def delete(self, key: str) -> None:
        """Drop an entry (no error when already gone)."""
        raise NotImplementedError

    def keys(self) -> Iterator[str]:
        """All committed entry keys."""
        raise NotImplementedError

    def entry_info(self, key: str) -> Optional[Tuple[int, float]]:
        """``(size_bytes, mtime_epoch)`` of one entry, or ``None``."""
        raise NotImplementedError

    def stats(self) -> StoreStats:
        """Entry count and total size."""
        raise NotImplementedError

    def location(self) -> str:
        raise NotImplementedError


class LocalDirStore(CacheStore):
    """The historical directory layout: ``<key>.json`` + ``<key>.npz``.

    The blob file keeps the ``.npz`` name it had when blobs were npz
    archives, so entries of every format share one layout and older
    ones heal through the format check one layer up.

    The meta file is written *last*, so it doubles as the commit
    record: a reader only trusts an entry whose meta file exists, and
    the meta document's blob digest (checked one layer up) rejects a
    pair torn by a crash between the two replaces.
    """

    backend = "dir"

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)

    def _paths(self, key: str) -> Tuple[Path, Path]:
        return (
            self.directory / f"{key}.json",
            self.directory / f"{key}.npz",
        )

    def get(self, key: str) -> Optional[Tuple[bytes, bytes]]:
        meta_path, blob_path = self._paths(key)
        try:
            meta = meta_path.read_bytes()
            blob = blob_path.read_bytes()
        except OSError:
            return None
        return meta, blob

    def put(self, key: str, meta: bytes, blob: bytes) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        meta_path, blob_path = self._paths(key)
        # Blob first, meta second: the meta file is the commit record.
        _atomic_write_bytes(blob_path, blob)
        _atomic_write_bytes(meta_path, meta)

    def delete(self, key: str) -> None:
        for path in self._paths(key):
            try:
                path.unlink()
            except OSError:
                pass

    def keys(self) -> Iterator[str]:
        if not self.directory.is_dir():
            return
        for path in sorted(self.directory.glob("*.json")):
            yield path.stem

    def entry_info(self, key: str) -> Optional[Tuple[int, float]]:
        meta_path, blob_path = self._paths(key)
        try:
            meta_stat = meta_path.stat()
            blob_stat = blob_path.stat()
        except OSError:
            return None
        return (
            meta_stat.st_size + blob_stat.st_size,
            max(meta_stat.st_mtime, blob_stat.st_mtime),
        )

    def stats(self) -> StoreStats:
        entries = 0
        total = 0
        for key in self.keys():
            info = self.entry_info(key)
            if info is not None:
                entries += 1
                total += info[0]
        return StoreStats(
            backend=self.backend,
            location=str(self.directory),
            entries=entries,
            total_bytes=total,
        )

    def location(self) -> str:
        return str(self.directory)


class SqliteStore(CacheStore):
    """One-file store on :mod:`sqlite3` (stdlib), WAL-journalled.

    sqlite serialises writers internally, so the meta+blob pair commits
    in a single transaction — there is no torn-pair window at all.  A
    fresh connection per operation keeps the store safe to share across
    processes *and* across pickled :class:`ResultCache` copies in a
    process pool (sqlite connections must not cross ``fork``).
    """

    backend = "sqlite"

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS entries (
            key     TEXT PRIMARY KEY,
            meta    BLOB NOT NULL,
            blob    BLOB NOT NULL,
            size    INTEGER NOT NULL,
            mtime   REAL NOT NULL
        )
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def _connect(self) -> sqlite3.Connection:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(str(self.path), timeout=30.0)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute(self._SCHEMA)
        return conn

    def get(self, key: str) -> Optional[Tuple[bytes, bytes]]:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT meta, blob FROM entries WHERE key = ?", (key,)
            ).fetchone()
        conn.close()
        if row is None:
            return None
        return bytes(row[0]), bytes(row[1])

    def put(self, key: str, meta: bytes, blob: bytes) -> None:
        with self._connect() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO entries "
                "(key, meta, blob, size, mtime) VALUES (?, ?, ?, ?, ?)",
                (key, meta, blob, len(meta) + len(blob), time.time()),
            )
        conn.close()

    def delete(self, key: str) -> None:
        with self._connect() as conn:
            conn.execute("DELETE FROM entries WHERE key = ?", (key,))
        conn.close()

    def keys(self) -> Iterator[str]:
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT key FROM entries ORDER BY key"
            ).fetchall()
        conn.close()
        for (key,) in rows:
            yield key

    def entry_info(self, key: str) -> Optional[Tuple[int, float]]:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT size, mtime FROM entries WHERE key = ?", (key,)
            ).fetchone()
        conn.close()
        if row is None:
            return None
        return int(row[0]), float(row[1])

    def stats(self) -> StoreStats:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(size), 0) FROM entries"
            ).fetchone()
        conn.close()
        return StoreStats(
            backend=self.backend,
            location=str(self.path),
            entries=int(row[0]),
            total_bytes=int(row[1]),
        )

    def location(self) -> str:
        return str(self.path)

    # sqlite3.Connection objects cannot be pickled; the store itself
    # holds only a path, so default pickling is already safe.


def open_store(spec: Union[str, Path, CacheStore]) -> CacheStore:
    """Resolve a backend from ``dir:PATH`` / ``sqlite:PATH`` / a path.

    A bare path (no scheme) selects the directory backend, matching the
    historical ``ResultCache(directory=...)`` behaviour.  Windows drive
    letters (``C:\\...``) are not mistaken for schemes.
    """
    if isinstance(spec, CacheStore):
        return spec
    text = str(spec)
    scheme, sep, rest = text.partition(":")
    if sep and len(scheme) > 1:
        if scheme == "dir":
            return LocalDirStore(rest)
        if scheme == "sqlite":
            return SqliteStore(rest)
        raise ValueError(
            f"unknown cache backend {scheme!r} "
            "(expected 'dir:PATH' or 'sqlite:PATH')"
        )
    return LocalDirStore(text)
