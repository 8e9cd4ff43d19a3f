"""The ``pearl-sim serve`` endpoint: coalescing, caching, backpressure.

Each test runs a real :class:`SweepServer` on an OS-assigned port with
its event loop on a background thread, and talks to it over real
sockets through :class:`ServeClient` — the same path CI's service smoke
uses.
"""

from __future__ import annotations

import asyncio
import hashlib
import http.client
import io
import json
import multiprocessing
import os
import select
import shlex
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.config import PearlConfig, PowerScalingConfig, SimulationConfig
from repro.experiments.cache import ENTRY_FORMAT, ResultCache
from repro.experiments.parallel import (
    execute_job,
    pair_spec,
    pearl_job,
    trace_job,
)
from repro.experiments.runner import experiment_pairs
from repro.experiments.service import server as server_module
from repro.experiments.service.client import ServeClient, ServeError
from repro.experiments.service.server import SweepServer
from repro.experiments.service.spec_codec import (
    result_from_bytes,
    spec_to_doc,
)

from .test_canonicalization import MALFORMED_DOCS, malformed_doc


@pytest.fixture
def tiny_sim_config() -> PearlConfig:
    return PearlConfig(
        simulation=SimulationConfig(warmup_cycles=100, measure_cycles=1_000),
        power_scaling=PowerScalingConfig(reservation_window=200),
    )


class _LiveServer:
    """A served SweepServer plus the thread its event loop runs on."""

    def __init__(self, server: SweepServer) -> None:
        self.server = server
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)

    def __enter__(self) -> "_LiveServer":
        self.thread.start()
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self.loop
        ).result(timeout=60)
        return self

    def __exit__(self, *exc_info) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop
        ).result(timeout=60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()

    @property
    def client(self) -> ServeClient:
        return ServeClient(self.server.host, self.server.port)


@pytest.fixture
def live(tmp_path):
    cache = ResultCache(directory=tmp_path / "cache")
    with _LiveServer(SweepServer(cache=cache, port=0, jobs=1)) as live:
        yield live


def _fingerprint(result):
    return (
        result.kind,
        result.stats.to_dict() if result.stats is not None else None,
        dict(result.state_residency),
        result.mean_laser_power_w,
        result.laser_stall_cycles,
        list(result.ml_predictions),
        list(result.ml_labels),
        dict(result.extras),
    )


class TestEndpoints:
    def test_healthz_and_stats(self, live):
        assert live.client.healthz()
        stats = live.client.stats()
        assert stats["submissions"] == 0
        assert stats["inflight"] == 0
        assert stats["store"]["entries"] == 0

    def test_bad_spec_is_400(self, live):
        with pytest.raises(ServeError) as err:
            live.client.submit({"format": 1, "spec": {"kind": "nonsense"}})
        assert err.value.status == 400

    def test_malformed_pearl_specs_are_400_before_the_pool(
        self, live, tiny_sim_config
    ):
        """An unknown policy, a pearl spec without a trace and an
        off-ladder static state are client errors: 400 at decode,
        nothing executed, nothing cached, no server error counted."""
        pair = experiment_pairs(quick=True)[0]
        good = spec_to_doc(pearl_job(tiny_sim_config, pair_spec(pair, 3)))
        for field, value in (
            ("power_policy", "warp"),
            ("trace", None),
            ("static_state", 7),
        ):
            doc = dict(good, **{field: value})
            with pytest.raises(ServeError) as err:
                live.client.submit(doc)
            assert err.value.status == 400, field
        stats = live.client.stats()
        assert stats["bad_requests"] == 3
        assert stats["errors"] == 0
        assert stats["submissions"] == 0
        assert stats["executions"] == 0
        assert stats["store"]["entries"] == 0

    def test_mistyped_and_invalid_trace_specs_are_400(
        self, live, tiny_sim_config
    ):
        """Wrong JSON types and unknown trace kinds or benchmarks are
        400s counted under ``bad_requests``: nothing is submitted,
        nothing fails in the pool and nothing reaches the store."""
        for case, mutate, _ in MALFORMED_DOCS:
            with pytest.raises(ServeError) as err:
                live.client.submit(malformed_doc(tiny_sim_config, mutate))
            assert err.value.status == 400, case
        stats = live.client.stats()
        assert stats["bad_requests"] == len(MALFORMED_DOCS)
        assert stats["errors"] == 0
        assert stats["submissions"] == 0
        assert stats["executions"] == 0
        assert stats["store"]["entries"] == 0

    def test_unknown_route_is_404(self, live):
        conn = http.client.HTTPConnection(
            live.server.host, live.server.port, timeout=30
        )
        try:
            conn.request("GET", "/nope")
            assert conn.getresponse().status == 404
        finally:
            conn.close()

    def test_unparseable_body_is_400(self, live):
        conn = http.client.HTTPConnection(
            live.server.host, live.server.port, timeout=30
        )
        try:
            conn.request("POST", "/simulate", body=b"{not json")
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "request_bytes,status,problem",
        [
            (b"NONSENSE\r\n\r\n", 400, "malformed request line"),
            (b"GET /nope HTTP/1.1\r\n\r\n", 404, "no route for GET /nope"),
            (
                b"POST /simulate HTTP/1.1\r\nContent-Length: 9\r\n\r\n"
                b"{not json",
                400,
                "bad spec document",
            ),
            (
                b"POST /simulate HTTP/1.1\r\n"
                b"Content-Length: 999999999\r\n\r\n",
                413,
                "body exceeds",
            ),
            (
                b"POST /simulate HTTP/1.1\r\nContent-Length: twelve\r\n\r\n",
                400,
                "Content-Length must be a non-negative integer",
            ),
            (
                b"POST /simulate HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
                400,
                "Content-Length must be a non-negative integer",
            ),
            (
                b"POST /simulate HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
                b'{"format":',
                400,
                "body ended after 10 of the 100 bytes",
            ),
            (
                b"GET /healthz HTTP/1.1\r\nX-Padding: "
                + b"a" * (70 << 10)
                + b"\r\n\r\n",
                400,
                "header line exceeds the 64 KiB limit",
            ),
        ],
        ids=[
            "malformed-request-line",
            "unknown-route",
            "unparseable-body",
            "oversized-body",
            "non-integer-length",
            "negative-length",
            "short-body",
            "oversized-header-line",
        ],
    )
    def test_client_errors_count_as_bad_requests(
        self, live, caplog, request_bytes, status, problem
    ):
        """Every 4xx is the client's fault: it names the fault and is
        counted under ``bad_requests``, never under the server's
        ``errors``; nothing escapes into the event loop's log, and the
        next request is served."""
        with socket.create_connection(
            (live.server.host, live.server.port), timeout=30
        ) as sock:
            sock.sendall(request_bytes)
            sock.shutdown(socket.SHUT_WR)  # where the short body ends
            response = sock.makefile("rb").read()
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split()[1] == str(status).encode()
        assert problem in json.loads(body)["error"]
        stats = live.client.stats()
        assert stats["bad_requests"] == 1
        assert stats["errors"] == 0
        assert stats["submissions"] == 0
        assert live.client.healthz()
        logged = [r.getMessage() for r in caplog.records if r.name == "asyncio"]
        assert logged == []

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"POST /simulate HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
            b'{"format":',
            b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n",
        ],
        ids=["partial-body", "unfinished-headers"],
    )
    def test_stalled_request_gets_408_at_the_read_deadline(
        self, live, monkeypatch, request_bytes
    ):
        """A client that stops sending mid-request, with its socket
        still open, is answered 408 once the read deadline passes and
        disconnected; it counts as a bad request and the next request
        is served."""
        monkeypatch.setattr(server_module, "_READ_DEADLINE_S", 0.5)
        with socket.create_connection(
            (live.server.host, live.server.port), timeout=30
        ) as sock:
            sock.sendall(request_bytes)
            response = sock.makefile("rb").read()
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split()[1] == b"408"
        assert "0.5 s read deadline" in json.loads(body)["error"]
        stats = live.client.stats()
        assert stats["bad_requests"] == 1
        assert stats["errors"] == 0
        assert live.client.healthz()


class TestShutdown:
    def test_stop_returns_after_every_pool_worker_exited(
        self, tmp_path, tiny_sim_config
    ):
        """A stopped server leaves no worker (nor its semaphores)
        behind: stop() waits for the spawn pool to shut down."""
        before = {child.pid for child in multiprocessing.active_children()}
        cache = ResultCache(directory=tmp_path / "cache")
        with _LiveServer(SweepServer(cache=cache, port=0, jobs=1)) as live:
            pair = experiment_pairs(quick=True)[0]
            spec = trace_job(tiny_sim_config, pair_spec(pair, 1), seed=1)
            live.client.submit_result(spec_to_doc(spec))
            assert live.client.stats()["executions"] == 1
            workers = [
                child
                for child in multiprocessing.active_children()
                if child.pid not in before
            ]
            assert workers
            asyncio.run_coroutine_threadsafe(
                live.server.stop(), live.loop
            ).result(timeout=60)
            assert [w.pid for w in workers if w.is_alive()] == []

    @pytest.mark.parametrize(
        "signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"]
    )
    def test_cli_serve_stops_cleanly_on_signal(
        self, tmp_path, tiny_sim_config, signum
    ):
        """``pearl-sim serve`` started with SIGINT ignored, as in a
        background job of a non-interactive shell, still stops through
        ``stop()`` on SIGINT and on SIGTERM once a miss has started its
        pool: exit 0, ``shutting down``, no traceback and no leak."""
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(repro.__file__).resolve().parent.parent),
            PEARL_RESULT_CACHE_DIR=str(tmp_path / "cache"),
        )
        env.pop("PEARL_RESULT_CACHE_BACKEND", None)
        serve = shlex.join(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--jobs", "1"]
        )
        # Its own process group, so a server that does not stop can be
        # killed together with the pool workers that hold its pipes.
        process = subprocess.Popen(
            ["/bin/sh", "-c", f"trap '' INT; exec {serve}"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=tmp_path,
            start_new_session=True,
        )
        try:
            ready, _, _ = select.select([process.stdout], [], [], 60)
            assert ready, "serve did not announce its port"
            address = process.stdout.readline().split("http://", 1)[1]
            port = int(address.split()[0].rsplit(":", 1)[1])
            pair = experiment_pairs(quick=True)[0]
            spec = trace_job(tiny_sim_config, pair_spec(pair, 1), seed=1)
            events = ServeClient(port=port).submit(spec_to_doc(spec))
            assert events[-1]["cached"] is False
            process.send_signal(signum)
            _, stderr = process.communicate(timeout=10)
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # the server and its pool have all exited
            if process.returncode is None:
                process.communicate()
        assert process.returncode == 0, stderr
        assert "shutting down" in stderr
        assert "Traceback" not in stderr
        assert "leaked" not in stderr


class TestLazyPool:
    """The worker pool starts on the first miss; hits never need it."""

    def _warm(self, tmp_path, tiny_sim_config, seed):
        pair = experiment_pairs(quick=True)[0]
        spec = trace_job(tiny_sim_config, pair_spec(pair, seed), seed=seed)
        cache = ResultCache(directory=tmp_path / "cache")
        cache.put(spec, execute_job(spec))
        return cache, spec

    def test_hit_only_session_never_starts_the_pool(
        self, tmp_path, tiny_sim_config
    ):
        cache, spec = self._warm(tmp_path, tiny_sim_config, seed=1)
        server = SweepServer(cache=cache, port=0, jobs=1)
        with _LiveServer(server) as live:
            for _ in range(3):
                events = live.client.submit(spec_to_doc(spec))
                assert events[-1]["cached"] is True
            assert server._pool is None
        assert server._pool is None  # stop() had nothing to shut down

    def test_first_miss_starts_the_pool_and_executes_once(
        self, tmp_path, tiny_sim_config
    ):
        cache, hit_spec = self._warm(tmp_path, tiny_sim_config, seed=1)
        pair = experiment_pairs(quick=True)[0]
        miss_spec = trace_job(tiny_sim_config, pair_spec(pair, 2), seed=2)
        server = SweepServer(cache=cache, port=0, jobs=1)
        with _LiveServer(server) as live:
            live.client.submit(spec_to_doc(hit_spec))
            assert server._pool is None
            first = live.client.submit(spec_to_doc(miss_spec))
            assert first[-1]["cached"] is False
            pool = server._pool
            assert pool is not None
            again = live.client.submit(spec_to_doc(miss_spec))
            assert again[-1]["cached"] is True
            assert server._pool is pool
            stats = live.client.stats()
            assert stats["executions"] == 1
            assert stats["cache_hits"] == 2
        assert server._pool is None


def _store_url(tmp_path, backend: str) -> str:
    if backend == "dir":
        return f"dir:{tmp_path / 'cache'}"
    return f"sqlite:{tmp_path / 'cache.db'}"


def _put_format2_entry(store, key, result, spec_payload) -> None:
    """Write ``result`` in the entry-format-2 layout: every scalar in the
    meta document, the three arrays in a compressed npz blob."""
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer,
        latencies=np.asarray(result.stats._latencies, dtype=np.int64),
        ml_predictions=np.asarray(result.ml_predictions, dtype=np.float64),
        ml_labels=np.asarray(result.ml_labels, dtype=np.float64),
    )
    blob = buffer.getvalue()
    meta = {
        "format": 2,
        "kind": result.kind,
        "state_residency": {
            str(state): fraction
            for state, fraction in result.state_residency.items()
        },
        "mean_laser_power_w": result.mean_laser_power_w,
        "laser_stall_cycles": result.laser_stall_cycles,
        "extras": result.extras,
        "telemetry": result.telemetry,
        "stats": result.stats.to_dict(include_latencies=False),
        "spec": spec_payload,
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
    }
    store.put(key, (json.dumps(meta, sort_keys=True) + "\n").encode(), blob)


@pytest.mark.parametrize("backend", ["dir", "sqlite"])
class TestStoredDocument:
    """A served result is the stored entry's blob, byte for byte."""

    def test_served_hit_streams_the_stored_blob(
        self, tmp_path, tiny_sim_config, backend
    ):
        pair = experiment_pairs(quick=True)[0]
        spec = pearl_job(tiny_sim_config, pair_spec(pair, 3), seed=3)
        cache = ResultCache(store=_store_url(tmp_path, backend))
        stored = cache.put(spec, execute_job(spec))
        assert cache.store.get(cache.key_for(spec))[1] == stored
        with _LiveServer(SweepServer(cache=cache, port=0, jobs=1)) as live:
            conn = http.client.HTTPConnection(
                live.server.host, live.server.port, timeout=30
            )
            try:
                conn.request(
                    "POST", "/simulate", body=json.dumps(spec_to_doc(spec))
                )
                lines = conn.getresponse().read().splitlines()
            finally:
                conn.close()
        assert json.loads(lines[-1])["cached"] is True
        assert lines[-1].endswith(b'"result": ' + stored + b"}")

    def test_format2_entry_heals_as_a_miss(
        self, tmp_path, tiny_sim_config, backend
    ):
        """An entry of the npz layout is evicted on read, in process
        and when served, and recomputed under the same job key."""
        pair = experiment_pairs(quick=True)[0]
        spec = pearl_job(tiny_sim_config, pair_spec(pair, 3), seed=3)
        direct = execute_job(spec)
        cache = ResultCache(store=_store_url(tmp_path, backend))
        key = cache.key_for(spec)

        _put_format2_entry(cache.store, key, direct, spec.payload())
        assert cache.get(spec) is None
        assert (cache.hits, cache.misses, cache.errors) == (0, 1, 1)
        assert cache.store.get(key) is None

        _put_format2_entry(cache.store, key, direct, spec.payload())
        with _LiveServer(SweepServer(cache=cache, port=0, jobs=1)) as live:
            healed = live.client.submit(spec_to_doc(spec))
            assert healed[-1]["key"] == key
            assert healed[-1]["cached"] is False
            served = live.client.submit_result(spec_to_doc(spec))
            stats = live.client.stats()
            assert stats["executions"] == 1
            assert stats["cache_hits"] == 1
        meta, blob = cache.store.get(key)
        assert json.loads(meta)["format"] == ENTRY_FORMAT
        assert _fingerprint(result_from_bytes(blob)) == _fingerprint(direct)
        assert _fingerprint(served) == _fingerprint(direct)


class TestCoalescing:
    def test_burst_of_identical_specs_executes_once(
        self, live, tiny_sim_config
    ):
        pair = experiment_pairs(quick=True)[0]
        doc = spec_to_doc(trace_job(tiny_sim_config, pair_spec(pair, 5)))
        n = 10
        streams = live.client.burst(doc, count=n)

        stats = live.client.stats()
        assert stats["submissions"] == n
        assert stats["executions"] == 1
        # Everyone else either joined the in-flight execution or read
        # the entry it committed — nobody recomputed.
        assert stats["coalesced"] + stats["cache_hits"] == n - 1

        # Every waiter streamed the complete, identical result.
        finals = [events[-1] for events in streams]
        assert all(event["event"] == "result" for event in finals)
        docs = {json.dumps(e["result"], sort_keys=True) for e in finals}
        assert len(docs) == 1

    def test_served_result_is_bit_identical_to_direct_run(
        self, live, tiny_sim_config
    ):
        pair = experiment_pairs(quick=True)[0]
        spec = pearl_job(tiny_sim_config, pair_spec(pair, 3), seed=3)
        served = live.client.submit_result(spec_to_doc(spec))
        direct = execute_job(spec)
        assert _fingerprint(served) == _fingerprint(direct)

    def test_resubmit_after_completion_hits_cache(
        self, live, tiny_sim_config
    ):
        pair = experiment_pairs(quick=True)[0]
        doc = spec_to_doc(trace_job(tiny_sim_config, pair_spec(pair, 7)))
        first = live.client.submit(doc)
        second = live.client.submit(doc)
        assert first[-1]["cached"] is False
        assert second[-1]["cached"] is True
        stats = live.client.stats()
        assert stats["executions"] == 1
        assert stats["cache_hits"] == 1
        assert first[-1]["result"] == second[-1]["result"]


class TestBackpressure:
    def test_distinct_key_beyond_max_pending_is_503(
        self, tmp_path, tiny_sim_config
    ):
        cache = ResultCache(directory=tmp_path / "cache")
        server = SweepServer(cache=cache, port=0, jobs=1, max_pending=1)
        pair = experiment_pairs(quick=True)[0]
        slow = PearlConfig(
            simulation=SimulationConfig(
                warmup_cycles=100, measure_cycles=8_000
            ),
            power_scaling=PowerScalingConfig(reservation_window=200),
        )
        slow_doc = spec_to_doc(pearl_job(slow, pair_spec(pair, 1), seed=1))
        fast_doc = spec_to_doc(
            trace_job(tiny_sim_config, pair_spec(pair, 2), seed=2)
        )
        with _LiveServer(server) as live:
            slow_events: list = []
            submitter = threading.Thread(
                target=lambda: slow_events.append(
                    live.client.submit(slow_doc)
                ),
                daemon=True,
            )
            submitter.start()
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if live.client.stats()["inflight"] >= 1:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("slow submission never became in-flight")

            # A *different* key while the slot is taken: refused.
            with pytest.raises(ServeError) as err:
                live.client.submit(fast_doc)
            assert err.value.status == 503

            # The same key coalesces instead — always admitted.
            joined = live.client.submit(slow_doc)
            assert joined[0]["coalesced"] is True
            assert joined[-1]["event"] == "result"

            submitter.join(timeout=120)
            assert slow_events and slow_events[0][-1]["event"] == "result"
            stats = live.client.stats()
            assert stats["rejected"] == 1
            assert stats["executions"] == 1
