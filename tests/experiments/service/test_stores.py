"""Cache store backends: round trips, atomicity scaffolding, management.

Both backends promise the same byte-level contract (see
``service/stores.py``); the whole suite here runs against each via the
``store`` fixture param.
"""

from __future__ import annotations

import pickle
import sqlite3
import sys
import threading

import pytest

from repro.experiments.service.stores import (
    LocalDirStore,
    SqliteStore,
    open_store,
)


@pytest.fixture(params=["dir", "sqlite"])
def store(request, tmp_path):
    if request.param == "dir":
        store = LocalDirStore(tmp_path / "cache")
    else:
        store = SqliteStore(tmp_path / "cache.db")
    yield store
    store.close()


class TestContract:
    def test_get_missing_is_none(self, store):
        assert store.get("0" * 64) is None

    def test_put_get_roundtrip(self, store):
        store.put("k1", b'{"a": 1}', b"\x00\x01\x02")
        assert store.get("k1") == (b'{"a": 1}', b"\x00\x01\x02")

    def test_overwrite_is_last_writer_wins(self, store):
        store.put("k1", b"old-meta", b"old-blob")
        store.put("k1", b"new-meta", b"new-blob")
        assert store.get("k1") == (b"new-meta", b"new-blob")

    def test_delete_then_miss(self, store):
        store.put("k1", b"m", b"b")
        store.delete("k1")
        assert store.get("k1") is None
        store.delete("k1")  # idempotent

    def test_keys_enumerates_committed_entries(self, store):
        for name in ("b-key", "a-key", "c-key"):
            store.put(name, b"m", b"b")
        assert list(store.keys()) == ["a-key", "b-key", "c-key"]

    def test_entry_info_reports_size(self, store):
        store.put("k1", b"meta!", b"0123456789")
        info = store.entry_info("k1")
        assert info is not None
        size, mtime = info
        assert size == 15
        assert mtime > 0
        assert store.entry_info("absent") is None

    def test_stats_totals(self, store):
        store.put("k1", b"aa", b"bbbb")
        store.put("k2", b"cc", b"dddd")
        stats = store.stats()
        assert stats.entries == 2
        assert stats.total_bytes == 12
        assert stats.backend == store.backend

    def test_store_is_picklable(self, store):
        """Stores cross process boundaries inside engine workers."""
        store.put("k1", b"m", b"b")
        clone = pickle.loads(pickle.dumps(store))
        assert clone.get("k1") == (b"m", b"b")
        clone.close()


class TestLocalDirLayout:
    """The directory backend keeps the historical file layout."""

    def test_files_on_disk(self, tmp_path):
        store = LocalDirStore(tmp_path)
        store.put("deadbeef", b"meta", b"blob")
        assert (tmp_path / "deadbeef.json").read_bytes() == b"meta"
        assert (tmp_path / "deadbeef.npz").read_bytes() == b"blob"

    def test_half_entry_is_absent(self, tmp_path):
        """A meta file without its blob (or vice versa) reads as missing."""
        store = LocalDirStore(tmp_path)
        store.put("k", b"meta", b"blob")
        (tmp_path / "k.npz").unlink()
        assert store.get("k") is None

    def test_no_temp_file_residue(self, tmp_path):
        store = LocalDirStore(tmp_path)
        for i in range(20):
            store.put("k", f"meta{i}".encode(), b"blob" * i)
        assert not list(tmp_path.glob("*.tmp"))


class TestSqliteConnection:
    def test_one_connection_per_process(self, tmp_path, monkeypatch):
        """50 mixed gets and puts share one connection; a pickled copy
        opens its own, and a closed store reopens on next use."""
        connects = []
        connect = sqlite3.connect

        def counting_connect(*args, **kwargs):
            connects.append(args)
            return connect(*args, **kwargs)

        monkeypatch.setattr(sqlite3, "connect", counting_connect)
        store = SqliteStore(tmp_path / "cache.db")
        for i in range(25):
            store.put(f"k{i}", b"meta", b"blob-%d" % i)
            assert store.get(f"k{i}") == (b"meta", b"blob-%d" % i)
        assert len(connects) == 1
        copy = pickle.loads(pickle.dumps(store))
        assert copy.get("k7") == (b"meta", b"blob-7")
        assert len(connects) == 2
        copy.close()
        store.close()
        assert store.stats().entries == 25
        assert len(connects) == 3
        store.close()

    def test_threads_share_the_connection(self, tmp_path):
        """Readers and writers on several threads (the server probes on
        its loop thread and writes from an executor) lose no entry."""
        store = SqliteStore(tmp_path / "cache.db")
        errors = []

        def worker(t):
            try:
                for i in range(40):
                    key = f"t{t}-{i}"
                    store.put(key, b"meta", key.encode())
                    assert store.get(key) == (b"meta", key.encode())
                    store.get(f"t{(t + 1) % 6}-{i}")
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(t,)) for t in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert store.stats().entries == 6 * 40
        store.close()


class TestOpenStore:
    def test_bare_path_is_dir_backend(self, tmp_path):
        store = open_store(str(tmp_path / "c"))
        assert isinstance(store, LocalDirStore)

    def test_dir_scheme(self, tmp_path):
        store = open_store(f"dir:{tmp_path}/c")
        assert isinstance(store, LocalDirStore)

    def test_sqlite_scheme(self, tmp_path):
        store = open_store(f"sqlite:{tmp_path}/c.db")
        assert isinstance(store, SqliteStore)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown cache backend"):
            open_store("redis:somewhere")

    @pytest.mark.parametrize("spec", ["", "dir:", "sqlite:"])
    def test_empty_path_rejected(self, spec):
        """An empty path would put the cache in the working directory."""
        with pytest.raises(ValueError, match="names no path"):
            open_store(spec)

    def test_store_instance_passes_through(self, tmp_path):
        store = SqliteStore(tmp_path / "c.db")
        assert open_store(store) is store
