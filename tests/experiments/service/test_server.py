"""The ``pearl-sim serve`` endpoint: coalescing, caching, backpressure.

Each test runs a real :class:`SweepServer` on an OS-assigned port with
its event loop on a background thread, and talks to it over real
sockets through :class:`ServeClient` — the same path CI's service smoke
uses.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import http.client
import io
import json
import multiprocessing
import os
import re
import select
import shlex
import signal
import socket
import subprocess
import sys
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.config import PearlConfig, PowerScalingConfig, SimulationConfig
from repro.experiments.cache import ENTRY_FORMAT, ResultCache
from repro.experiments.parallel import (
    JobSpec,
    collective_spec,
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
    result_to_doc,
    spec_from_doc,
    spec_to_doc,
)
from repro.ml.features import NUM_FEATURES
from repro.ml.lifecycle import ModelRegistry, default_registry
from repro.ml.ridge import RidgeRegression
from repro.noc.network import JobResult
from repro.noc.router import PowerPolicyKind

from .test_canonicalization import MALFORMED_DOCS, malformed_doc, mutated_doc

# A handler task or socket left behind by a stopped server surfaces
# only as an unraisable exception when it is collected: fail on it.
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnraisableExceptionWarning"
)


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
        self.client = ServeClient(self.server.host, self.server.port)
        return self

    def __exit__(self, *exc_info) -> None:
        # The client stays connected: stop() closes its idle connection.
        self.stop()
        self.client.close()
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()

    def stop(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop
        ).result(timeout=60)

    def connect(self) -> socket.socket:
        return socket.create_connection(
            (self.server.host, self.server.port), timeout=30
        )


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


def _warm_cache(tmp_path, config, seed):
    """A cache holding one executed trace job, and that job's spec."""
    pair = experiment_pairs(quick=True)[0]
    spec = trace_job(config, pair_spec(pair, seed), seed=seed)
    cache = ResultCache(directory=tmp_path / "cache")
    cache.put(spec, execute_job(spec))
    return cache, spec


def _response(sock: socket.socket) -> "tuple[http.client.HTTPResponse, bytes]":
    """Read one response from a raw socket, leaving the socket open."""
    response = http.client.HTTPResponse(sock)
    response.begin()
    return response, response.read()


def _framed(body: bytes, version: str = "HTTP/1.1") -> bytes:
    """A ``POST /simulate`` of ``body`` with its ``Content-Length``."""
    return (
        f"POST /simulate {version}\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode() + body


def _post(doc, version: str = "HTTP/1.1") -> bytes:
    return _framed(json.dumps(doc).encode(), version)


_HEALTHZ = b"GET /healthz HTTP/1.1\r\n\r\n"


def _send(live, body: bytes) -> "tuple[int, bytes]":
    """POST ``body`` byte for byte; the response's status and body."""
    conn = http.client.HTTPConnection(
        live.server.host, live.server.port, timeout=60
    )
    try:
        conn.request("POST", "/simulate", body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _submit_body(live, body: bytes) -> list:
    """POST ``body`` byte for byte; the events of its 200 response."""
    status, payload = _send(live, body)
    assert status == 200, payload
    return [json.loads(line) for line in payload.splitlines()]


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
        for case, mutate, match in MALFORMED_DOCS:
            with pytest.raises(ServeError) as err:
                live.client.submit(malformed_doc(tiny_sim_config, mutate))
            assert err.value.status == 400, case
            assert re.search(match, str(err.value)), (case, str(err.value))
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
            (
                b"POST /simulate HTTP/1.1\r\nContent-Length: 200000\r\n\r\n"
                + b"[" * 200_000,
                400,
                "bad spec document",
            ),
            (
                b"POST /simulate HTTP/1.1\r\nContent-Length: 0\r\n"
                b"Content-Length: 0\r\n\r\n",
                400,
                "Content-Length given more than once",
            ),
            (
                b"POST /simulate HTTP/1.1\r\n\r\n",
                411,
                "a POST needs a Content-Length",
            ),
            (
                b"POST /simulate HTTP/1.1\r\n"
                b"Content-Length: 0000000002\r\n\r\n{}",
                400,
                "bad spec document",
            ),
            (
                b"POST /simulate HTTP/1.1\r\nContent-Length: "
                + b"0" * 5_000
                + b"1\r\n\r\n{",
                400,
                "bad spec document",
            ),
            (
                b"POST /simulate HTTP/1.1\r\n"
                b"Content-Length: 00000000008388609\r\n\r\n",
                413,
                "body exceeds",
            ),
            (
                b"GET /healthz HTTP/1.1\r\nbogus header line\r\n\r\n",
                400,
                "header line without a colon: 'bogus header line'",
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
            "deeply-nested-body",
            "duplicated-length",
            "missing-length",
            "zero-padded-length",
            "five-thousand-zeros-then-one",
            "zero-padded-oversized-length",
            "header-line-without-colon",
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


class TestKeepAlive:
    """One connection serves request after request."""

    def test_sequential_requests_share_one_connection(
        self, tmp_path, tiny_sim_config
    ):
        cache, spec = _warm_cache(tmp_path, tiny_sim_config, seed=1)
        with _LiveServer(SweepServer(cache=cache, port=0, jobs=1)) as live:
            n = 20
            for _ in range(n):
                assert live.client.submit(spec_to_doc(spec))[-1]["cached"]
            assert live.client.healthz()
            stats = live.client.stats()
        assert stats["connections"] == 1
        assert stats["cache_hits"] == n

    def test_kept_alive_stream_is_chunked(self, tmp_path, tiny_sim_config):
        """An HTTP/1.1 ``/simulate`` stream is chunked, carries both
        events, and leaves the connection open for the next request."""
        cache, spec = _warm_cache(tmp_path, tiny_sim_config, seed=1)
        with _LiveServer(SweepServer(cache=cache, port=0, jobs=1)) as live:
            with live.connect() as sock:
                sock.sendall(_post(spec_to_doc(spec)))
                response, body = _response(sock)
                assert response.getheader("Transfer-Encoding") == "chunked"
                assert response.getheader("Connection") is None
                accepted, result = map(json.loads, body.splitlines())
                assert accepted["event"] == "accepted"
                assert result["cached"] is True
                sock.sendall(_HEALTHZ)
                response, body = _response(sock)
                assert json.loads(body) == {"status": "ok"}
            assert live.client.stats()["connections"] == 2

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            b"GET /healthz HTTP/1.0\r\n\r\n",
        ],
        ids=["connection-close", "http-1.0"],
    )
    def test_close_requests_get_eof(self, live, request_bytes):
        with live.connect() as sock:
            sock.settimeout(5)  # well inside the 30 s idle deadline
            sock.sendall(request_bytes)
            response = sock.makefile("rb").read()  # returns only at EOF
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split()[1] == b"200"
        assert b"Connection: close" in head
        assert json.loads(body) == {"status": "ok"}

    def test_http10_stream_is_close_delimited(
        self, tmp_path, tiny_sim_config
    ):
        cache, spec = _warm_cache(tmp_path, tiny_sim_config, seed=1)
        with _LiveServer(SweepServer(cache=cache, port=0, jobs=1)) as live:
            with live.connect() as sock:
                sock.settimeout(5)
                sock.sendall(_post(spec_to_doc(spec), "HTTP/1.0"))
                response = sock.makefile("rb").read()
        head, _, body = response.partition(b"\r\n\r\n")
        assert b"Connection: close" in head
        assert b"Transfer-Encoding" not in head
        accepted, result = map(json.loads, body.splitlines())
        assert accepted["event"] == "accepted"
        assert result["cached"] is True

    def test_chunked_request_body_is_400(self, live):
        with live.connect() as sock:
            sock.settimeout(5)
            sock.sendall(
                b"POST /simulate HTTP/1.1\r\nTransfer-Encoding: chunked"
                b"\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
            )
            response = sock.makefile("rb").read()
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400"
        assert "Content-Length" in json.loads(body)["error"]
        assert live.client.stats()["bad_requests"] == 1

    def test_stalled_second_request_gets_408(self, live, monkeypatch):
        """A kept-alive connection whose next request starts and then
        stalls is answered 408 and closed, like a first request."""
        monkeypatch.setattr(server_module, "_READ_DEADLINE_S", 0.5)
        with live.connect() as sock:
            sock.sendall(_HEALTHZ)
            _response(sock)
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n")
            response = sock.makefile("rb").read()
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split()[1] == b"408"
        assert "0.5 s read deadline" in json.loads(body)["error"]
        stats = live.client.stats()
        assert stats["bad_requests"] == 1
        assert stats["errors"] == 0

    def test_idle_connection_is_closed_quietly(self, live, monkeypatch):
        """No byte of a next request within the deadline: the server
        closes the connection with no response and counts nothing."""
        monkeypatch.setattr(server_module, "_READ_DEADLINE_S", 0.5)
        with live.connect() as sock, live.connect() as silent:
            sock.sendall(_HEALTHZ)
            _response(sock)
            for idle in (sock, silent):  # after a request, and before one
                idle.settimeout(10)
                assert idle.recv(1) == b""
        stats = live.client.stats()
        assert stats["connections"] == 3
        assert stats["bad_requests"] == 0
        assert stats["errors"] == 0

    def test_closed_pooled_connection_is_retried_once(
        self, live, monkeypatch
    ):
        """A pooled connection the server closed while it sat idle is
        sent the request again on a new connection."""
        monkeypatch.setattr(server_module, "_READ_DEADLINE_S", 0.3)
        assert live.client.healthz()
        (pooled,) = live.client._idle
        pooled.sock.settimeout(10)
        assert pooled.sock.recv(1, socket.MSG_PEEK) == b""  # closed
        assert live.client.stats()["connections"] == 2

    def test_a_new_connection_is_not_retried(self):
        """The one retry is for reused connections: a server that hangs
        up on a new connection too fails the request."""
        accepted = []
        done = threading.Event()

        def answer_once(listener):
            listener.settimeout(0.1)  # closing it would not end accept()
            while not done.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                accepted.append(conn)
                with conn:
                    conn.recv(1 << 16)
                    if len(accepted) == 1:
                        conn.sendall(
                            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"
                        )

        with socket.create_server(("127.0.0.1", 0)) as listener:
            thread = threading.Thread(target=answer_once, args=(listener,))
            thread.start()
            try:
                with ServeClient(port=listener.getsockname()[1]) as client:
                    assert client.stats() == {}
                    with pytest.raises(ConnectionResetError):
                        client.stats()
            finally:
                done.set()
                thread.join(timeout=30)
        assert not thread.is_alive()
        # The first connection, then one retry after it was found closed.
        assert len(accepted) == 2

    def test_burst_threads_never_share_a_connection(
        self, tmp_path, tiny_sim_config
    ):
        """Threads racing on the client's pool each hold their own
        connection: every request is answered, and no more connections
        are opened than there are threads."""
        cache, spec = _warm_cache(tmp_path, tiny_sim_config, seed=1)
        threads = 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _LiveServer(SweepServer(cache=cache, port=0, jobs=1)) as live:
                streams = live.client.burst(
                    spec_to_doc(spec), count=64, threads=threads
                )
                stats = live.client.stats()
        finally:
            sys.setswitchinterval(interval)
        assert all(events[-1]["cached"] is True for events in streams)
        assert stats["submissions"] == 64
        assert stats["connections"] <= threads


class TestShutdown:
    def test_stop_closes_idle_connections(self, live):
        """stop() closes a kept-alive connection waiting for its next
        request and waits for its handler, long before the read
        deadline; the client then finds the server gone."""
        assert live.client.healthz()
        with live.connect() as sock:
            sock.sendall(_HEALTHZ)
            _response(sock)
            start = time.monotonic()
            live.stop()
            assert time.monotonic() - start < 5
            sock.settimeout(5)
            assert sock.recv(1) == b""
        assert live.server._idle == {}
        assert not live.client.healthz()

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
            # The client's pooled connection stays open through the
            # signal, so stop() must close it; it is closed afterwards.
            with ServeClient(port=port) as client:
                events = client.submit(spec_to_doc(spec))
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

    def test_hit_only_session_never_starts_the_pool(
        self, tmp_path, tiny_sim_config
    ):
        cache, spec = _warm_cache(tmp_path, tiny_sim_config, seed=1)
        server = SweepServer(cache=cache, port=0, jobs=1)
        with _LiveServer(server) as live:
            for _ in range(3):
                events = live.client.submit(spec_to_doc(spec))
                assert events[-1]["cached"] is True
            assert server._pool is None
        assert server._pool is None  # stop() had nothing to shut down

    def test_a_hit_is_one_write_on_the_loop(
        self, tmp_path, tiny_sim_config, monkeypatch
    ):
        """A hit is probed on the event loop, with no executor hop, and
        answered in one write: head, both events and the last chunk."""
        cache, spec = _warm_cache(tmp_path, tiny_sim_config, seed=1)
        writes = []
        write = asyncio.StreamWriter.write
        monkeypatch.setattr(
            asyncio.StreamWriter,
            "write",
            lambda writer, data: writes.append(data) or write(writer, data),
        )
        with _LiveServer(SweepServer(cache=cache, port=0, jobs=1)) as live:
            hops = []
            hop = live.loop.run_in_executor
            live.loop.run_in_executor = (
                lambda *args: hops.append(args) or hop(*args)
            )
            events = live.client.submit(spec_to_doc(spec))
            assert [event["event"] for event in events] == [
                "accepted",
                "result",
            ]
            assert events[-1]["cached"] is True
            assert hops == []
            assert len(writes) == 1
            assert writes[0].endswith(b"\r\n0\r\n\r\n")

    def test_a_request_computes_its_payload_once(
        self, tmp_path, tiny_sim_config, monkeypatch
    ):
        """A first-seen body is decoded and keyed once, and a miss
        stores its job with that one ``payload()``.  The same bytes
        again are decoded and keyed zero times; the same spec in other
        bytes is a first-seen body with the same key."""
        decodes, payloads = [], []
        decode = server_module.spec_from_doc
        payload = JobSpec.payload
        monkeypatch.setattr(
            server_module,
            "spec_from_doc",
            lambda doc: decodes.append(doc) or decode(doc),
        )
        monkeypatch.setattr(
            JobSpec,
            "payload",
            lambda job: payloads.append(job) or payload(job),
        )
        pair = experiment_pairs(quick=True)[0]
        doc = spec_to_doc(
            trace_job(tiny_sim_config, pair_spec(pair, 4), seed=4)
        )
        body = json.dumps(doc).encode()
        cache = ResultCache(directory=tmp_path / "cache")
        with _LiveServer(SweepServer(cache=cache, port=0, jobs=1)) as live:
            first = _submit_body(live, body)
            assert first[-1]["cached"] is False
            assert (len(decodes), len(payloads)) == (1, 1)
            again = _submit_body(live, body)
            assert again[-1]["cached"] is True
            assert (len(decodes), len(payloads)) == (1, 1)
            other = _submit_body(live, json.dumps(doc, indent=1).encode())
            assert other[-1]["cached"] is True
            assert (len(decodes), len(payloads)) == (2, 2)
        keys = {events[0]["key"] for events in (first, again, other)}
        assert keys == {cache.key_for(spec_from_doc(doc))}

    def test_first_miss_starts_the_pool_and_executes_once(
        self, tmp_path, tiny_sim_config
    ):
        cache, hit_spec = _warm_cache(tmp_path, tiny_sim_config, seed=1)
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


def _per_packet_latencies(result) -> np.ndarray:
    """One latency per delivered packet, as the older layouts stored them."""
    stats = result.stats
    return np.repeat(
        np.asarray(stats.latency_values, dtype=np.int64),
        stats.latency_counts,
    )


def _put_format2_entry(store, key, result, spec_payload) -> None:
    """Write ``result`` in the entry-format-2 layout: every scalar in the
    meta document, the three arrays in a compressed npz blob."""
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer,
        latencies=_per_packet_latencies(result),
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
        "stats": result.stats.to_dict(include_histogram=False),
        "spec": spec_payload,
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
    }
    store.put(key, (json.dumps(meta, sort_keys=True) + "\n").encode(), blob)


def _put_format4_entry(store, key, result, spec_payload) -> None:
    """Write ``result`` in the entry-format-4 layout: one meta line with
    the spec and the blob digest over result document format 2, which
    packs one latency per delivered packet."""
    doc = result_to_doc(result)
    del doc["latency_histogram"]
    doc["format"] = 2
    doc["latencies"] = base64.b64encode(
        zlib.compress(_per_packet_latencies(result).astype("<i8").tobytes())
    ).decode("ascii")
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    meta = {
        "format": 4,
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

    @pytest.mark.parametrize(
        "put_old_entry",
        [_put_format2_entry, _put_format4_entry],
        ids=["format2", "format4"],
    )
    def test_format2_entry_heals_as_a_miss(
        self, tmp_path, tiny_sim_config, backend, put_old_entry
    ):
        """An entry of an older layout (the npz blob, or the per-packet
        latencies of entry format 4) is evicted on read, in process
        and when served, and recomputed once under the same job key."""
        pair = experiment_pairs(quick=True)[0]
        spec = pearl_job(tiny_sim_config, pair_spec(pair, 3), seed=3)
        direct = execute_job(spec)
        cache = ResultCache(store=_store_url(tmp_path, backend))
        key = cache.key_for(spec)

        put_old_entry(cache.store, key, direct, spec.payload())
        assert cache.get(spec) is None
        assert (cache.hits, cache.misses, cache.errors) == (0, 1, 1)
        assert cache.store.get(key) is None

        put_old_entry(cache.store, key, direct, spec.payload())
        with _LiveServer(SweepServer(cache=cache, port=0, jobs=1)) as live:
            healed = live.client.submit(spec_to_doc(spec))
            assert healed[-1]["key"] == key
            assert healed[-1]["cached"] is False
            served = live.client.submit_result(spec_to_doc(spec))
            stats = live.client.stats()
            assert stats["executions"] == 1
            assert stats["cache_hits"] == 1
        meta, blob = cache.store.get(key)
        assert json.loads(meta.splitlines()[0])["format"] == ENTRY_FORMAT
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

    def test_stored_key_is_answered_while_max_pending_keys_are_in_flight(
        self, tmp_path, tiny_sim_config, monkeypatch
    ):
        """A hit holds no execution slot: with every slot taken by a
        running execution, a stored key is still answered (``accepted``,
        then a cached ``result``) while a new key gets a 503."""
        cache, stored_spec = _warm_cache(tmp_path, tiny_sim_config, seed=1)
        server = SweepServer(cache=cache, port=0, jobs=1, max_pending=1)
        # Executions run on a thread and wait for the gate, so the slot
        # stays taken for as long as the test needs.
        gate = threading.Event()
        monkeypatch.setattr(
            server_module,
            "execute_job",
            lambda spec: gate.wait(60) and execute_job(spec),
        )
        server._pool = ThreadPoolExecutor(max_workers=1)
        pair = experiment_pairs(quick=True)[0]
        running, refused = (
            spec_to_doc(
                trace_job(tiny_sim_config, pair_spec(pair, seed), seed=seed)
            )
            for seed in (2, 3)
        )
        with _LiveServer(server) as live:
            events: list = []
            submitter = threading.Thread(
                target=lambda: events.append(live.client.submit(running)),
                daemon=True,
            )
            submitter.start()
            try:
                deadline = time.monotonic() + 60
                while live.client.stats()["inflight"] < 1:
                    assert time.monotonic() < deadline, "never in flight"
                    time.sleep(0.01)
                hit = live.client.submit(spec_to_doc(stored_spec))
                with pytest.raises(ServeError) as err:
                    live.client.submit(refused)
                assert live.client.stats()["inflight"] == 1
            finally:
                gate.set()
                submitter.join(timeout=60)
            stats = live.client.stats()
        assert [event["event"] for event in hit] == ["accepted", "result"]
        assert hit[0]["coalesced"] is False
        assert hit[-1]["cached"] is True
        assert err.value.status == 503
        assert events and events[0][-1]["cached"] is False
        assert stats["cache_hits"] == 1
        assert stats["rejected"] == 1
        assert stats["executions"] == 1
        assert stats["coalesced"] == 0


def _model(scale: float) -> RidgeRegression:
    """A fitted model; each ``scale`` gives other weights."""
    return RidgeRegression(lam=1.0).fit(
        np.eye(NUM_FEATURES), scale * np.arange(NUM_FEATURES, dtype=float)
    )


@pytest.fixture
def served_model_path(tmp_path, monkeypatch):
    """The file of a model tagged ``served`` in the default registry,
    which also holds two ids that share the prefix ``zz``."""
    monkeypatch.setenv("PEARL_REGISTRY_DIR", str(tmp_path / "registry"))
    registry = default_registry()
    record = registry.put(_model(1.0), training={"key": {"spec": "served"}})
    registry.promote(record.model_id, "served")
    for model_id in ("zz00000000000001", "zz00000000000002"):
        obj_dir = registry.root / "objects" / model_id
        obj_dir.mkdir(parents=True)
        (obj_dir / "meta.json").write_text("{}")
    return str(registry.model_path(record.model_id))


def _ml_doc(config, model_path: str, ml_model: str) -> dict:
    pair = experiment_pairs(quick=True)[0]
    spec = pearl_job(
        config,
        pair_spec(pair, 3),
        seed=3,
        power_policy=PowerPolicyKind.ML,
        ml_model_path=model_path,
    )
    return spec_to_doc(spec, ml_model=ml_model)


class TestModelReference:
    """A document's ``ml_model`` is resolved against the registry once."""

    def test_a_tag_costs_one_tags_read_and_no_scan(
        self, served_model_path, tiny_sim_config, monkeypatch
    ):
        doc = _ml_doc(tiny_sim_config, served_model_path, "served")
        reads, scans = [], []
        read_tags = ModelRegistry._read_tags
        iter_dirs = ModelRegistry._iter_object_dirs
        monkeypatch.setattr(
            ModelRegistry,
            "_read_tags",
            lambda registry: reads.append(1) or read_tags(registry),
        )
        monkeypatch.setattr(
            ModelRegistry,
            "_iter_object_dirs",
            lambda registry: scans.append(1) or iter_dirs(registry),
        )
        spec = spec_from_doc(doc)
        assert (len(reads), len(scans)) == (1, 0)
        assert spec.ml_model_path == served_model_path

    @pytest.mark.parametrize(
        "ref,message",
        [
            ("no-such-model", "unknown model reference 'no-such-model'"),
            (
                "zz",
                "ambiguous model reference 'zz': "
                "['zz00000000000001', 'zz00000000000002']",
            ),
        ],
        ids=["unknown", "ambiguous"],
    )
    def test_unresolvable_reference_is_400(
        self, served_model_path, tiny_sim_config, live, ref, message
    ):
        doc = _ml_doc(tiny_sim_config, served_model_path, ref)
        with pytest.raises(ServeError) as err:
            live.client.submit(doc)
        assert err.value.status == 400
        assert str(err.value) == (
            f"HTTP 400: bad spec document: ml_model: {message}"
        )
        stats = live.client.stats()
        assert stats["bad_requests"] == 1
        assert stats["submissions"] == 0


def _fresh_key(live, body: bytes) -> str:
    """The key a fresh decode of ``body`` gives at this moment."""
    return live.server.cache.key_for(spec_from_doc(json.loads(body)))


class TestDecodedBodies:
    """A server remembers the decode of each body it has seen, and no
    request can tell: every one gets the key a fresh decode gives."""

    def test_a_moved_tag_rekeys_the_same_bytes(
        self, served_model_path, tiny_sim_config, live
    ):
        registry = default_registry()
        other = registry.put(_model(2.0), training={"key": {"spec": "other"}})
        body = json.dumps(
            _ml_doc(tiny_sim_config, served_model_path, "served")
        ).encode()
        first = _submit_body(live, body)
        second = _submit_body(live, body)
        registry.promote(other.model_id, "served")
        third = _submit_body(live, body)
        cached = [events[-1]["cached"] for events in (first, second, third)]
        assert cached == [False, True, False]
        assert first[0]["key"] == second[0]["key"] != third[0]["key"]
        assert third[0]["key"] == _fresh_key(live, body)
        assert live.client.stats()["executions"] == 2

    def test_a_rewritten_model_file_rekeys_the_same_bytes(
        self, served_model_path, tiny_sim_config, live
    ):
        registry = default_registry()
        other = registry.put(_model(2.0), training={"key": {"spec": "other"}})
        body = json.dumps(
            _ml_doc(
                tiny_sim_config, served_model_path, registry.resolve("served")
            )
        ).encode()
        first = _submit_body(live, body)
        Path(served_model_path).write_bytes(
            registry.model_path(other.model_id).read_bytes()
        )
        second = _submit_body(live, body)
        assert second[0]["key"] != first[0]["key"]
        assert second[0]["key"] == _fresh_key(live, body)
        assert second[-1]["cached"] is False

    def test_a_newly_ambiguous_prefix_is_400(
        self, served_model_path, tiny_sim_config, live
    ):
        registry = default_registry()
        prefix = registry.resolve("served")[:6]
        body = json.dumps(
            _ml_doc(tiny_sim_config, served_model_path, prefix)
        ).encode()
        assert _submit_body(live, body)[0]["key"] == _fresh_key(live, body)
        twin = registry.root / "objects" / f"{prefix}zzzzzzzzzz"
        twin.mkdir()
        (twin / "meta.json").write_text("{}")
        status, payload = _send(live, body)
        assert status == 400
        matches = sorted([registry.resolve("served"), twin.name])
        assert json.loads(payload)["error"] == (
            f"bad spec document: ml_model: ambiguous model reference "
            f"{prefix!r}: {matches}"
        )
        assert body not in live.server._decoded
        stats = live.client.stats()
        assert (stats["bad_requests"], stats["submissions"]) == (1, 1)

    def test_the_newest_bodies_are_remembered(self, tmp_path, tiny_sim_config):
        """Past the bound the oldest body is forgotten: one stored
        document padded with 0 to bound spaces is bound + 1 distinct
        bodies with one key."""
        cache, spec = _warm_cache(tmp_path, tiny_sim_config, seed=1)
        body = json.dumps(spec_to_doc(spec)).encode()
        bound = server_module._DECODED_BODIES
        bodies = [body + b" " * pad for pad in range(bound + 1)]
        server = SweepServer(cache=cache, port=0, jobs=1)
        with _LiveServer(server) as live:
            for padded in bodies:
                assert _submit_body(live, padded)[-1]["cached"] is True
            assert live.client.stats()["cache_hits"] == bound + 1
        assert list(server._decoded) == bodies[1:]

    def test_a_body_over_its_share_is_decoded_every_time(
        self, tmp_path, tiny_sim_config, monkeypatch
    ):
        """A body longer than its share of the map's byte budget is
        served as any other, but never remembered."""
        decodes = []
        decode = server_module.spec_from_doc
        monkeypatch.setattr(
            server_module,
            "spec_from_doc",
            lambda doc: decodes.append(doc) or decode(doc),
        )
        cache, spec = _warm_cache(tmp_path, tiny_sim_config, seed=1)
        body = json.dumps(spec_to_doc(spec)).encode()
        share = server_module._MAX_BODY_BYTES // server_module._DECODED_BODIES
        padded = body + b" " * (share + 1 - len(body))
        server = SweepServer(cache=cache, port=0, jobs=1)
        with _LiveServer(server) as live:
            for sent in (padded, padded, body, body):
                assert _submit_body(live, sent)[-1]["cached"] is True
        assert len(decodes) == 3
        assert list(server._decoded) == [body]

    @pytest.mark.hypothesis  # its @given runs inside, on one live server
    def test_every_key_is_the_key_of_a_fresh_decode(
        self, tmp_path, tiny_sim_config, monkeypatch
    ):
        """Over generated sequences of submissions, tag moves, model
        file rewrites and prefix shadowing, every request is answered
        as a fresh decode of its body at that moment would answer it:
        the same key, or a 400 where that decode raises."""
        monkeypatch.setenv("PEARL_REGISTRY_DIR", str(tmp_path / "registry"))
        registry = default_registry()
        ids = [
            registry.put(_model(scale), training={"key": {"scale": scale}})
            .model_id
            for scale in (1.0, 2.0, 3.0)
        ]
        blobs = [registry.model_path(i).read_bytes() for i in ids]
        prefix = ids[2][:6]
        twin = registry.root / "objects" / f"{prefix}zzzzzzzzzz"
        pair = experiment_pairs(quick=True)[0]
        job = trace_job(tiny_sim_config, pair_spec(pair, 6), seed=6)
        bodies = [
            json.dumps(spec_to_doc(job, ml_model=ref)).encode()
            for ref in (None, "served", ids[1], prefix)
        ]
        # Trace jobs ignore their model and run in milliseconds.
        server = SweepServer(
            cache=ResultCache(directory=tmp_path / "cache"), port=0, jobs=1
        )
        server._pool = ThreadPoolExecutor(max_workers=1)

        def apply(op) -> None:
            name, index, source = op
            if name == "submit":
                body = bodies[index]
                try:
                    expected = _fresh_key(live, body)
                except ValueError:
                    expected = None
                status, payload = _send(live, body)
                if expected is None:
                    assert status == 400, payload
                    assert body not in server._decoded
                else:
                    assert status == 200, payload
                    accepted = json.loads(payload.splitlines()[0])
                    assert accepted["key"] == expected
            elif name == "move":
                registry.promote(ids[index], "served")
            elif name == "rewrite":
                registry.model_path(ids[index]).write_bytes(blobs[source])
            elif twin.exists():  # "shadow" toggles the prefix's twin
                (twin / "meta.json").unlink()
                twin.rmdir()
            else:
                twin.mkdir()
                (twin / "meta.json").write_text("{}")

        ops = st.one_of(
            st.tuples(st.just("submit"), st.integers(0, 3), st.just(0)),
            st.tuples(st.just("move"), st.integers(0, 2), st.just(0)),
            st.tuples(
                st.just("rewrite"), st.integers(0, 2), st.integers(0, 2)
            ),
            st.tuples(st.just("shadow"), st.just(0), st.just(0)),
        )

        @settings(max_examples=40, deadline=None)
        @given(st.lists(ops, min_size=1, max_size=10))
        def check(sequence):
            registry.promote(ids[0], "served")
            for model_id, blob in zip(ids, blobs):
                registry.model_path(model_id).write_bytes(blob)
            if twin.exists():
                apply(("shadow", 0, 0))
            for op in sequence:
                apply(op)

        with _LiveServer(server) as live:
            check()
            stats = live.client.stats()
        assert stats["errors"] == 0
        assert stats["executions"] <= len(blobs) + 1


class TestLifecycleOutcome:
    """A retrain job reports what drift and retraining did, whichever
    way it runs: executed, replayed from the cache or served."""

    def test_retrain_job_reports_its_outcome_three_ways(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments.parallel import ExperimentEngine, pearl_network

        from ...golden.golden_cases import retrain_config
        from ...oracle import drifting_model

        monkeypatch.setenv("PEARL_REGISTRY_DIR", str(tmp_path / "registry"))
        registry = default_registry()
        record = registry.put(
            drifting_model(), training={"key": {"spec": "drifting"}}
        )
        registry.promote(record.model_id, "drifting")
        pair = experiment_pairs(quick=True)[0]
        spec = pearl_job(
            retrain_config(),
            pair_spec(pair, 11),
            seed=11,
            power_policy=PowerPolicyKind.ML,
            ml_model_path=registry.model_path("drifting"),
        )
        run = pearl_network(
            spec, RidgeRegression.load(spec.ml_model_path)
        ).run(spec.trace.build(spec.config))
        assert run.retrain_events >= 1
        expected = (
            run.retrain_events,
            run.retrained_model_ids,
            run.drift_events,
            run.drift_retraining_recommended,
            run.fallback_windows,
        )

        executed = execute_job(spec)
        cache = ResultCache(directory=tmp_path / "cache")
        engine = ExperimentEngine(jobs=1, cache=cache)
        engine.run([spec])
        (hit,) = engine.run([spec])
        assert cache.hits == 1
        with _LiveServer(
            SweepServer(
                cache=ResultCache(directory=tmp_path / "serve_cache"),
                port=0,
                jobs=1,
            )
        ) as live:
            served = live.client.submit_result(
                spec_to_doc(spec, ml_model="drifting")
            )
            assert live.client.stats()["executions"] == 1
        for way, result in (
            ("executed", executed), ("cache hit", hit), ("served", served)
        ):
            assert (
                result.retrain_events,
                result.retrained_model_ids,
                result.drift_events,
                result.drift_retraining_recommended,
                result.fallback_windows,
            ) == expected, way
            assert result.stats.to_dict() == run.stats.to_dict(), way


class _Replay(io.BytesIO):
    """Bytes a server sent, read back as a socket file that a parsed
    response cannot close, so several responses parse in turn."""

    def makefile(self, mode: str) -> "_Replay":
        return self

    def close(self) -> None:
        pass


def _exchange(live, raw: bytes) -> list:
    """Send ``raw`` on a new connection, half-close it, and read every
    response until the server closes: a list of (status, body)."""
    with live.connect() as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        with sock.makefile("rb") as stream:
            data = stream.read()
    replay = _Replay(data)
    responses = []
    while replay.tell() < len(data):
        response = http.client.HTTPResponse(replay)
        response.begin()
        responses.append((response.status, response.read()))
    return responses


#: Request-line tokens: visible ASCII and bytes that are no UTF-8.
_TOKENS = st.lists(
    st.sampled_from(list(range(0x21, 0x7F)) + [0x80, 0xC3, 0xFE, 0xFF]),
    min_size=1,
    max_size=12,
).map(bytes)
#: Header values: Latin-1 text without line breaks.
_HEADER_VALUES = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0xFF), max_size=12
)
_POST = b"POST /simulate HTTP/1.1\r\n"
#: Leading zeros of a Content-Length, which do not change its value.
_ZEROS = st.one_of(st.just(b""), st.integers(1, 5_000).map(lambda n: b"0" * n))


def _bad_body(body: bytes, problem: str = "") -> tuple:
    """A well-framed request whose body is no valid spec document."""
    return _framed(body), body, 400, "^bad spec document: .*" + problem


def _malformed_requests(good: bytes, config) -> dict:
    """Kind -> strategy of (request bytes, its body or ``None``, the
    4xx status, a pattern its ``error`` matches).  ``good`` is a valid
    document, cut short or corrupted by some kinds."""
    invalid = (b"\xff", b"\xc3\x28", b"\x80", b"\xed\xa0\x80")
    return {
        "request-line": st.tuples(
            st.lists(_TOKENS, max_size=6).filter(lambda line: len(line) != 3),
            st.sampled_from([b"\r\n\r\n", b"\r\n", b"\n", b""]),
        )
        .map(lambda line: b" ".join(line[0]) + line[1])
        .filter(bool)
        .map(lambda raw: (raw, None, 400, "malformed request line")),
        "missing-length": st.just(
            (_POST + b"\r\n", None, 411, "a POST needs a Content-Length")
        ),
        "duplicated-length": st.tuples(
            st.integers(0, 99), st.integers(0, 99)
        ).map(
            lambda n: (
                _POST
                + b"Content-Length: %d\r\nContent-Length: %d\r\n\r\n" % n,
                None,
                400,
                "Content-Length given more than once",
            )
        ),
        "non-numeric-length": _HEADER_VALUES.filter(
            lambda v: not (v.strip().isascii() and v.strip().isdigit())
        ).map(
            lambda v: (
                _POST
                + b"Content-Length: "
                + v.encode("latin-1")
                + b"\r\n\r\n",
                None,
                400,
                "Content-Length must be a non-negative integer",
            )
        ),
        "oversized-length": st.tuples(
            _ZEROS, st.integers(server_module._MAX_BODY_BYTES + 1, 10**40)
        ).map(
            lambda n: (
                _POST + b"Content-Length: %s%d\r\n\r\n" % n,
                None,
                413,
                "body exceeds",
            )
        ),
        "colon-less-header": _HEADER_VALUES.filter(
            lambda v: v and ":" not in v
        ).map(
            lambda v: (
                b"GET /healthz HTTP/1.1\r\n"
                + v.encode("latin-1")
                + b"\r\n\r\n",
                None,
                400,
                "header line without a colon",
            )
        ),
        "transfer-encoding": st.tuples(_HEADER_VALUES, st.booleans()).map(
            lambda te: (
                _POST
                + b"Transfer-Encoding: "
                + te[0].encode("latin-1")
                + (b"\r\nContent-Length: 0" if te[1] else b"")
                + b"\r\n\r\n",
                None,
                400,
                "request bodies must be sent with a Content-Length",
            )
        ),
        "short-body": st.tuples(
            st.integers(0, len(good) - 1), st.integers(1, 1_000), _ZEROS
        ).map(
            lambda cut: (
                _POST
                + b"Content-Length: %s%d\r\n\r\n" % (cut[2], cut[0] + cut[1])
                + good[: cut[0]],
                good[: cut[0]],
                400,
                "body ended after",
            )
        ),
        "invalid-utf8": st.tuples(
            st.integers(0, len(good)), st.sampled_from(invalid)
        ).map(
            lambda bad: _bad_body(
                good[: bad[0]] + bad[1] + good[bad[0] :], "codec can't decode"
            )
        ),
        "deep-nesting": st.tuples(
            st.sampled_from([(b"[", b"]"), (b'{"a":', b"}")]),
            st.one_of(st.integers(1, 50), st.integers(2_000, 100_000)),
            st.booleans(),
        ).map(
            lambda n: _bad_body(
                n[0][0] * n[1] + (b"0" + n[0][1] * n[1] if n[2] else b"")
            )
        ),
        "non-object": st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-(10**6), 10**6),
            st.floats(allow_nan=False, allow_infinity=False),
            st.text(max_size=8),
            st.lists(st.integers(-9, 9), max_size=3),
        ).map(
            lambda value: _bad_body(
                json.dumps(value).encode(), "must be a JSON object"
            )
        ),
        "malformed-doc": st.sampled_from(MALFORMED_DOCS).map(
            lambda case: _bad_body(
                json.dumps(malformed_doc(config, case[1])).encode(), case[2]
            )
        ),
    }


class TestRequestFuzz:
    @pytest.mark.hypothesis  # its @given runs inside, on one live server
    def test_malformed_requests_get_a_4xx_naming_their_fault(
        self, tmp_path, tiny_sim_config, monkeypatch
    ):
        """Generated raw requests against one live server: broken
        request lines, header lines without a colon, missing,
        duplicated, non-numeric or oversized (and zero-padded)
        lengths, any Transfer-Encoding, bodies cut short by a
        half-close, invalid UTF-8, deep nesting, non-object JSON and
        malformed or mutated spec documents.  Each malformed request
        gets the 4xx naming its fault; a mutated document that still
        decodes may get a 200.  A rejected body reaches neither the
        store nor the body map, the server counts no error, and it
        still answers at the end.  Executions are stubbed: a mutation
        may ask for any number of cycles, and the fuzzed path ends at
        the pool."""
        monkeypatch.setenv("PEARL_REGISTRY_DIR", str(tmp_path / "registry"))
        monkeypatch.setattr(
            server_module,
            "execute_job",
            lambda spec: JobResult(kind=spec.kind),
        )
        cache = ResultCache(directory=tmp_path / "cache")
        server = SweepServer(cache=cache, port=0, jobs=1)
        server._pool = ThreadPoolExecutor(max_workers=1)
        pair = experiment_pairs(quick=True)[0]
        docs = [
            json.loads(
                json.dumps(spec_to_doc(trace_job(tiny_sim_config, trace)))
            )
            for trace in (pair_spec(pair, 3), collective_spec("alltoall", 5))
        ]
        requests = _malformed_requests(
            json.dumps(docs[0]).encode(), tiny_sim_config
        )

        @settings(max_examples=100, deadline=None)
        @given(data=st.data())
        def check(data):
            kind = data.draw(st.sampled_from(sorted(requests) + ["mutated"]))
            if kind == "mutated":  # it may still decode
                body = json.dumps(mutated_doc(data, docs)).encode()
                raw, statuses = _framed(body), (200, 400)
                problem = "^bad spec document: "
            else:
                raw, body, status, problem = data.draw(requests[kind])
                statuses = (status,)
            before = live.client.stats()
            responses = _exchange(live, raw)
            assert len(responses) == 1, responses
            status, payload = responses[0]
            assert status in statuses, (kind, payload)
            after = live.client.stats()
            assert after["errors"] == before["errors"]
            if status == 200:
                events = [json.loads(line) for line in payload.splitlines()]
                assert [e["event"] for e in events] == ["accepted", "result"]
                return
            error = json.loads(payload)["error"]
            assert re.search(problem, error), (kind, error)
            assert after["store"]["entries"] == before["store"]["entries"]
            assert body not in server._decoded

        with _LiveServer(server) as live:
            check()
            assert live.client.healthz()
            assert live.client.stats()["errors"] == 0
