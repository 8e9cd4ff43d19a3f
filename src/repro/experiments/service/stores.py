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
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union


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

    def close(self) -> None:
        """Release what the store holds open (nothing, by default)."""


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


def _enable_wal(conn: sqlite3.Connection, timeout: float) -> None:
    """Switch ``conn``'s file to WAL journalling.  Processes opening a
    new file at once race for the switch, and sqlite tells the losers
    "database is locked" without waiting, so retry for ``timeout`` s."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() > deadline:
                raise
            time.sleep(0.01)


class SqliteStore(CacheStore):
    """One-file store on :mod:`sqlite3` (stdlib), WAL-journalled.

    sqlite serialises writers internally, so the meta+blob pair commits
    in a single transaction — there is no torn-pair window at all, and
    the file is safe to share across processes.  Each process opens one
    connection, lazily, and runs the WAL pragma and the schema once on
    it: a connect costs dozens of keyed reads.  One lock covers
    each operation, because the sweep server probes the store on its
    event-loop thread and writes from an executor thread.  sqlite
    connections must not cross ``fork`` or a pickle into a process
    pool, so the connection is reopened when ``os.getpid()`` changes
    and is left out of the pickled state; :meth:`close` releases it.
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
        self._lock = threading.Lock()
        self._conn: Optional[sqlite3.Connection] = None
        self._pid = os.getpid()
        # A connection inherited across fork must be neither used nor
        # closed by the child, so it stays referenced here, untouched.
        self._inherited: List[sqlite3.Connection] = []

    def __getstate__(self) -> dict:
        return {"path": self.path}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["path"])

    def _connection(self) -> sqlite3.Connection:
        """This process's connection; the caller holds ``_lock``."""
        pid = os.getpid()
        if self._pid != pid:
            if self._conn is not None:
                self._inherited.append(self._conn)
            self._conn, self._pid = None, pid
        if self._conn is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(
                str(self.path), timeout=30.0, check_same_thread=False
            )
            _enable_wal(conn, timeout=30.0)
            conn.execute(self._SCHEMA)
            self._conn = conn
        return self._conn

    def _query(self, sql: str, args: tuple = ()) -> list:
        # fetchall steps the statement to its end, so no read
        # transaction stays open between operations.
        with self._lock:
            return self._connection().execute(sql, args).fetchall()

    def _write(self, sql: str, args: tuple) -> None:
        with self._lock:
            conn = self._connection()
            with conn:  # one committed transaction
                conn.execute(sql, args)

    def get(self, key: str) -> Optional[Tuple[bytes, bytes]]:
        rows = self._query(
            "SELECT meta, blob FROM entries WHERE key = ?", (key,)
        )
        if not rows:
            return None
        meta, blob = rows[0]
        return bytes(meta), bytes(blob)

    def put(self, key: str, meta: bytes, blob: bytes) -> None:
        self._write(
            "INSERT OR REPLACE INTO entries "
            "(key, meta, blob, size, mtime) VALUES (?, ?, ?, ?, ?)",
            (key, meta, blob, len(meta) + len(blob), time.time()),
        )

    def delete(self, key: str) -> None:
        self._write("DELETE FROM entries WHERE key = ?", (key,))

    def keys(self) -> Iterator[str]:
        for (key,) in self._query("SELECT key FROM entries ORDER BY key"):
            yield key

    def entry_info(self, key: str) -> Optional[Tuple[int, float]]:
        rows = self._query(
            "SELECT size, mtime FROM entries WHERE key = ?", (key,)
        )
        if not rows:
            return None
        size, mtime = rows[0]
        return int(size), float(mtime)

    def stats(self) -> StoreStats:
        ((entries, total),) = self._query(
            "SELECT COUNT(*), COALESCE(SUM(size), 0) FROM entries"
        )
        return StoreStats(
            backend=self.backend,
            location=str(self.path),
            entries=int(entries),
            total_bytes=int(total),
        )

    def location(self) -> str:
        return str(self.path)

    def close(self) -> None:
        """Close this process's connection; the next operation reopens it."""
        with self._lock:
            if self._conn is not None and self._pid == os.getpid():
                self._conn.close()
                self._conn = None


def open_store(spec: Union[str, Path, CacheStore]) -> CacheStore:
    """Resolve a backend from ``dir:PATH`` / ``sqlite:PATH`` / a path.

    A bare path (no scheme) selects the directory backend, matching the
    historical ``ResultCache(directory=...)`` behaviour.  Windows drive
    letters (``C:\\...``) are not mistaken for schemes.  An empty path
    is rejected: it would resolve to the working directory.
    """
    if isinstance(spec, CacheStore):
        return spec
    scheme, path = parse_store_spec(spec)
    return LocalDirStore(path) if scheme == "dir" else SqliteStore(path)


def parse_store_spec(spec: Union[str, Path]) -> Tuple[str, str]:
    """``(scheme, path)`` of a store spec, or a :class:`ValueError`.

    Opens and creates nothing, so a command can check the spec before
    it does any work (:func:`open_store` gives the rules).
    """
    text = str(spec)
    scheme, sep, rest = text.partition(":")
    if not (sep and len(scheme) > 1):
        scheme, rest = "dir", text
    if scheme not in ("dir", "sqlite"):
        raise ValueError(
            f"unknown cache backend {text!r} "
            "(expected 'dir:PATH' or 'sqlite:PATH')"
        )
    if not rest:
        raise ValueError(
            f"cache backend {text!r} names no path "
            "(expected 'dir:PATH' or 'sqlite:PATH')"
        )
    return scheme, rest
