"""``pearl-sim serve`` — the async simulation-as-a-service endpoint.

A small stdlib-only (:mod:`asyncio` + hand-rolled HTTP/1.1) server that
accepts simulation specs as JSON and streams back newline-delimited
JSON events.  Three properties make it hold up under a thundering herd
of identical submissions (the "millions of users" story):

* **request coalescing** — every spec hashes to its content key (the
  same :func:`~repro.experiments.cache.job_key` the sweep cache uses);
  all requests for a key that is already in flight await the *one*
  running execution instead of spawning their own.  N concurrent
  identical submissions perform exactly 1 simulation and stream N
  results;
* **shared cache** — a request whose key is not in flight first probes
  the same content-addressed store as ``pearl-sim sweep``, so anything
  any worker ever computed is served at cache-read speed;
* **backpressure** — at most ``max_pending`` *distinct* keys may be in
  flight; beyond that, new work is refused with ``503`` +
  ``Retry-After``.  Cache hits and coalescing joins are always
  answered: neither starts an execution.  Executions fan out over a
  bounded process pool, started on the first miss, so a server that
  only answers hits never starts one.

Each server remembers the spec, key and cache payload of up to
``_DECODED_BODIES`` distinct request bodies, so a body seen before
skips the JSON parse, the spec decode and the key hash.  A remembered
body that names a model is reused only after its reference is resolved
again and the model file hashed again
(:func:`~.spec_codec.model_still_keyed`), so every request gets the
key a fresh decode would.  The body lookup, the in-flight check, the
store probe and the registration of a new execution all run on the
event loop with no ``await`` between them, so coalescing stays exact.
A hit is answered in one write (head, ``accepted`` event, ``result``
event and, when chunked, the last chunk) and never touches an
executor; a miss registers the shared execution, which does not probe
again.  A result event carries the cache entry's stored result
document (:func:`~.spec_codec.result_to_bytes`) spliced in byte for
byte: a hit is streamed without being decoded or re-encoded.

Connections are kept alive: one connection serves request after
request, and the NDJSON stream is framed with ``Transfer-Encoding:
chunked`` (a miss or a join sends the head and the ``accepted`` event,
then the final event and the last chunk).  ``Connection: close`` and
HTTP/1.0 requests get a close-delimited response instead, and so does
every framing error (400/408/413).  A connection on which no byte of
a next request arrives within ``_READ_DEADLINE_S`` is closed quietly.

Endpoints::

    POST /simulate   body: spec document (see spec_codec)
                     response: NDJSON stream of
                       {"event": "accepted", "key": ..., "coalesced": ...}
                       {"event": "result", "key": ..., "cached": ...,
                        "result": {...}}            (or "error")
    GET  /stats      counters + cache store shape
    GET  /healthz    liveness
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, NamedTuple, Optional

from ... import obs
from ...obs import OBS
from ..cache import ResultCache
from ..parallel import _init_worker_obs, execute_job
from .manifest import worker_identity

# result_to_doc is not called here (results are spliced in as stored),
# but perfbench's span wrappers look the name up in this module.
from .spec_codec import (  # noqa: F401
    model_still_keyed,
    result_to_doc,
    spec_from_doc,
)

_MAX_BODY_BYTES = 8 << 20  # an 8 MiB spec document is a client bug

#: Distinct request bodies whose decode a server remembers, the oldest
#: evicted first.  An entry of a 2 KiB document (body, spec and cache
#: payload) takes about 7 KiB, so a full map stays under 8 MiB; a body
#: over ``_MAX_BODY_BYTES // _DECODED_BODIES`` (8 KiB) is decoded every
#: time, so the map never holds more body bytes than one request may
#: carry.
_DECODED_BODIES = 1024

#: Seconds a client has to send its whole request (request line,
#: headers and body) once its first byte arrived; a stalled one gets a
#: 408 and its socket back.  A kept-alive connection on which no byte
#: of a next request arrives for as long is closed without a response.
_READ_DEADLINE_S = 30.0

#: The last chunk of a chunked response.
_LAST_CHUNK = b"0\r\n\r\n"


class _HttpError(Exception):
    def __init__(self, status: int, reason: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.reason = reason
        self.message = message


class _Request(NamedTuple):
    method: str
    target: str
    body: bytes
    #: HTTP/1.1 without ``Connection: close``: serve the next request
    #: on the same connection.
    keep_alive: bool


class _Decoded(NamedTuple):
    """What the first clean decode and key of one request body gave."""

    spec: Any  # the JobSpec
    key: str
    payload: Dict[str, Any]
    #: The document's ``ml_model`` reference, or ``None``.
    model_ref: Optional[str]


class SweepServer:
    """Coalescing, cache-backed simulation server."""

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        host: str = "127.0.0.1",
        port: int = 8639,
        jobs: int = 2,
        max_pending: int = 64,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        self.cache = cache if cache is not None else ResultCache()
        self.host = host
        self.port = port
        self.jobs = jobs
        self.max_pending = max_pending
        self.worker = worker_identity()
        #: key -> the one future all coalesced requests await.
        self._inflight: Dict[str, asyncio.Future] = {}
        #: request body -> its decode, oldest first (``_decode``).
        self._decoded: Dict[bytes, _Decoded] = {}
        self.counters: Dict[str, int] = {
            "connections": 0,
            "submissions": 0,
            "executions": 0,
            "coalesced": 0,
            "cache_hits": 0,
            "rejected": 0,
            "errors": 0,
            "bad_requests": 0,
        }
        #: Connections waiting for the first byte of a next request ->
        #: their handler task; ``stop()`` closes these.
        self._idle: Dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._server: Optional[asyncio.base_events.Server] = None

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket (the worker pool starts on the first miss)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        # Port 0 means "pick one"; publish what the OS chose.
        self.port = self._server.sockets[0].getsockname()[1]

    def _worker_pool(self) -> ProcessPoolExecutor:
        """The execution pool, created on first use."""
        if self._pool is None:
            if self._server is None:  # stopped: start no pool to leak
                raise RuntimeError("server is not running")
            # "spawn", not fork: the serving process is inherently
            # multithreaded (event loop + cache I/O threads), and forking
            # a multithreaded process can deadlock the child on inherited
            # locks.  Spawned workers import the worker function fresh.
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_init_worker_obs,
                initargs=(OBS.config(),),
            )
        return self._pool

    def _serving(self) -> bool:
        return self._server is not None and self._server.is_serving()

    async def stop(self) -> None:
        """Close the socket and the idle connections, wait until every
        pool worker has exited, then close the cache store.

        A connection waiting for its next request is closed and its
        handler awaited; one in the middle of a request finishes it and
        then closes.  Queued executions are cancelled; the wait runs off
        the event loop so other tasks keep running while the workers
        exit.
        """
        if self._server is not None:
            self._server.close()
            # Server.wait_closed() does not wait for open connections
            # before Python 3.12 and waits for all of them after, so
            # the idle ones are closed here on every version.
            idle = list(self._idle.items())
            for writer, _task in idle:
                writer.close()
            if idle:
                await asyncio.wait([task for _writer, task in idle])
            await self._server.wait_closed()
            self._server = None
        if self._pool is not None:
            pool, self._pool = self._pool, None
            await asyncio.to_thread(
                pool.shutdown, wait=True, cancel_futures=True
            )
        self.cache.store.close()

    # -- HTTP plumbing --------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.counters["connections"] += 1
        task = asyncio.current_task()
        try:
            # A handler that starts after stop() began serves nothing.
            while self._serving():
                self._idle[writer] = task
                try:
                    first = await asyncio.wait_for(
                        reader.read(1), _READ_DEADLINE_S
                    )
                except asyncio.TimeoutError:
                    return  # idle past the deadline: close quietly
                finally:
                    del self._idle[writer]
                if not first:
                    return  # the client (or stop()) closed the connection
                try:
                    request = await asyncio.wait_for(
                        self._read_request(reader, first), _READ_DEADLINE_S
                    )
                except asyncio.TimeoutError:
                    await self._write_error(
                        writer,
                        _HttpError(
                            408,
                            "Request Timeout",
                            "request not received within the "
                            f"{_READ_DEADLINE_S:g} s read deadline",
                        ),
                        keep_alive=False,
                    )
                    return
                except _HttpError as exc:
                    # The stream's framing is lost: answer and close.
                    await self._write_error(writer, exc, keep_alive=False)
                    return
                keep_alive = request.keep_alive and self._serving()
                try:
                    await self._route(request, writer, keep_alive)
                except _HttpError as exc:
                    await self._write_error(writer, exc, keep_alive)
                except Exception as exc:  # noqa: BLE001 - never hang the client
                    await self._write_error(
                        writer,
                        _HttpError(
                            500, "Internal Server Error", f"unhandled: {exc!r}"
                        ),
                        keep_alive=False,
                    )
                    return
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass  # client went away; the shared execution (if any) lives on
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader, first: bytes
    ) -> _Request:
        """Parse one request whose first byte was already read; every
        framing fault is a 4xx naming it."""
        try:
            request_line = (
                first if first == b"\n" else first + await reader.readline()
            )
        except (ValueError, OSError):
            raise _HttpError(400, "Bad Request", "unreadable request line")
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HttpError(400, "Bad Request", "malformed request line")
        method, target, version = parts
        headers: Dict[str, str] = {}
        while True:
            try:
                line = await reader.readline()
            except ValueError:  # the stream's line limit (64 KiB)
                raise _HttpError(
                    400, "Bad Request", "header line exceeds the 64 KiB limit"
                )
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon:
                raise _HttpError(
                    400,
                    "Bad Request",
                    f"header line without a colon: {name.rstrip()[:64]!r}",
                )
            name = name.strip().lower()
            if name == "content-length" and name in headers:
                # Two lengths frame one body two ways: refuse both.
                raise _HttpError(
                    400, "Bad Request", "Content-Length given more than once"
                )
            headers[name] = value.strip()
        if "transfer-encoding" in headers:
            raise _HttpError(
                400,
                "Bad Request",
                "request bodies must be sent with a Content-Length",
            )
        text = headers.get("content-length")
        if text is None:
            if method == "POST":
                # Its body would be read as the next request.
                raise _HttpError(
                    411, "Length Required", "a POST needs a Content-Length"
                )
            text = "0"
        if not (text.isascii() and text.isdigit()):
            raise _HttpError(
                400,
                "Bad Request",
                "Content-Length must be a non-negative integer, "
                f"got {text[:32]!r}",
            )
        # Leading zeros do not change the length.  Then the digit count
        # first: int() refuses over 4,300 digits, and no body this
        # server accepts needs ten.
        digits = text.lstrip("0") or "0"
        if len(digits) > 9 or int(digits) > _MAX_BODY_BYTES:
            raise _HttpError(
                413, "Payload Too Large", f"body exceeds {_MAX_BODY_BYTES} bytes"
            )
        length = int(digits)
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise _HttpError(
                400,
                "Bad Request",
                f"body ended after {len(exc.partial)} of the "
                f"{length} bytes Content-Length announced",
            )
        tokens = {
            token.strip().lower()
            for token in headers.get("connection", "").split(",")
        }
        keep_alive = version == "HTTP/1.1" and "close" not in tokens
        return _Request(method, target, body, keep_alive)

    async def _route(
        self,
        request: _Request,
        writer: asyncio.StreamWriter,
        keep_alive: bool,
    ) -> None:
        method = request.method
        path = request.target.split("?", 1)[0]
        if method == "GET" and path == "/healthz":
            await self._write_json(writer, 200, {"status": "ok"}, keep_alive)
            return
        if method == "GET" and path == "/stats":
            await self._write_json(writer, 200, self.stats_doc(), keep_alive)
            return
        if method == "POST" and path == "/simulate":
            await self._handle_simulate(request.body, writer, keep_alive)
            return
        raise _HttpError(404, "Not Found", f"no route for {method} {path}")

    @staticmethod
    def _head(
        status: int,
        reason: str,
        content_type: str,
        keep_alive: bool,
        extra_headers: "tuple[str, ...]" = (),
        content_length: Optional[int] = None,
    ) -> bytes:
        """A response head: framed by ``content_length`` when given,
        else chunked on a kept-alive connection and by EOF otherwise."""
        lines = [f"HTTP/1.1 {status} {reason}", f"Content-Type: {content_type}"]
        if not keep_alive:
            lines.append("Connection: close")
        if content_length is not None:
            lines.append(f"Content-Length: {content_length}")
        elif keep_alive:
            lines.append("Transfer-Encoding: chunked")
        lines.extend(extra_headers)
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def _write_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        doc: dict,
        keep_alive: bool,
        reason: str = "OK",
        extra_headers: "tuple[str, ...]" = (),
    ) -> None:
        payload = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
        writer.write(
            self._head(
                status,
                reason,
                "application/json",
                keep_alive,
                extra_headers,
                content_length=len(payload),
            )
            + payload
        )
        await writer.drain()

    async def _write_error(
        self, writer: asyncio.StreamWriter, exc: _HttpError, keep_alive: bool
    ) -> None:
        # A 4xx is the client's malformed request, not a server fault.
        if exc.status < 500:
            self.counters["bad_requests"] += 1
        else:
            self.counters["errors"] += 1
        extra = ("Retry-After: 1",) if exc.status == 503 else ()
        await self._write_json(
            writer,
            exc.status,
            {"error": exc.message},
            keep_alive,
            reason=exc.reason,
            extra_headers=extra,
        )

    # -- /simulate ------------------------------------------------------------

    async def _handle_simulate(
        self, body: bytes, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> None:
        spec, key, payload, _ref = self._decode(body)
        self.counters["submissions"] += 1
        self._count("submissions")

        # A join, a hit or a miss.  No await until a miss has registered
        # its execution, so two requests for one key never both start
        # it; the probe runs on the loop, before the max_pending check,
        # because a hit takes no execution slot.
        future = self._inflight.get(key)
        coalesced = future is not None
        document = None if coalesced else self.cache.get_by_key(key)
        if coalesced:
            self.counters["coalesced"] += 1
            self._count("coalesced")
        elif document is not None:
            self.counters["cache_hits"] += 1
            self._count("cache_hits")
        else:
            if len(self._inflight) >= self.max_pending:
                self.counters["rejected"] += 1
                self._count("rejected")
                raise _HttpError(
                    503,
                    "Service Unavailable",
                    f"{len(self._inflight)} keys in flight "
                    f"(max_pending={self.max_pending}); retry shortly",
                )
            future = asyncio.ensure_future(self._execute(key, spec, payload))
            self._inflight[key] = future
            future.add_done_callback(
                lambda _f, _key=key: self._inflight.pop(_key, None)
            )

        # A kept-alive stream is chunked: each event is one chunk.
        def frame(data: bytes) -> bytes:
            if keep_alive:
                return b"%x\r\n%s\r\n" % (len(data), data)
            return data

        accepted = {"event": "accepted", "key": key, "coalesced": coalesced}
        head = self._head(200, "OK", "application/x-ndjson", keep_alive)
        head += frame(_event_line(accepted))
        end = _LAST_CHUNK if keep_alive else b""
        if document is not None:  # a hit is answered in one write
            line = self._result_line(key, True, document)
            writer.write(head + frame(line) + end)
            await writer.drain()
            return
        writer.write(head)
        await writer.drain()
        try:
            # shield(): a disconnecting waiter must not cancel the one
            # shared execution the other coalesced requests await.
            document = await asyncio.shield(future)
        except Exception as exc:  # noqa: BLE001 - reported to the client
            line = _event_line({"event": "error", "key": key, "error": repr(exc)})
            self.counters["errors"] += 1
        else:
            line = self._result_line(key, False, document)
        writer.write(frame(line) + end)
        await writer.drain()

    def _decode(self, body: bytes) -> _Decoded:
        """The spec, key and cache payload of one request body.

        A remembered body is reused while its model reference still
        holds; any other body is parsed, decoded and keyed, and
        remembered only once all three succeeded, so a rejected body is
        never stored.  A stale entry is dropped before the fresh
        decode, which may reject the body.
        """
        decoded = self._decoded.get(body)
        if decoded is not None and model_still_keyed(
            decoded.model_ref, decoded.spec, decoded.payload
        ):
            return decoded
        self._decoded.pop(body, None)
        try:
            doc = json.loads(body.decode("utf-8"))
            spec = spec_from_doc(doc)
        except (ValueError, RecursionError) as exc:
            # RecursionError: a document nested deeper than the parser
            # (or the decoder) can follow is malformed, not a fault.
            raise _HttpError(400, "Bad Request", f"bad spec document: {exc}")
        key, payload = self.cache.key_for(spec, with_payload=True)
        decoded = _Decoded(spec, key, payload, doc.get("ml_model"))
        if len(body) <= _MAX_BODY_BYTES // _DECODED_BODIES:
            if len(self._decoded) >= _DECODED_BODIES:
                del self._decoded[next(iter(self._decoded))]
            self._decoded[body] = decoded
        return decoded

    def _result_line(self, key: str, cached: bool, document: bytes) -> bytes:
        """The ``result`` event, with the stored document as its last
        member, spliced in unparsed."""
        head = json.dumps(
            {
                "event": "result",
                "key": key,
                "cached": cached,
                "worker": self.worker,
            },
            sort_keys=True,
        )
        return head[:-1].encode("utf-8") + b', "result": ' + document + b"}\n"

    async def _execute(self, key: str, spec, payload: dict) -> bytes:
        """The single execution all coalesced waiters share.

        Runs after a missed probe.  ``payload`` is the spec's cache
        payload, stored with the fresh entry.  Returns the result
        document as the cache stored it.
        """
        loop = asyncio.get_running_loop()
        result = await loop.run_in_executor(
            self._worker_pool(), execute_job, spec
        )
        self.counters["executions"] += 1
        self._count("executions")
        if OBS.enabled and result.telemetry is not None:
            obs.merge_capture(result.telemetry, stream=f"serve/{key[:12]}")
        return await loop.run_in_executor(
            None, self.cache.put_by_key, key, result, payload
        )

    # -- stats ----------------------------------------------------------------

    def stats_doc(self) -> dict:
        return {
            "worker": self.worker,
            "jobs": self.jobs,
            "max_pending": self.max_pending,
            "inflight": len(self._inflight),
            **self.counters,
            "store": self.cache.stats().to_dict(),
        }

    @staticmethod
    def _count(event: str, amount: int = 1) -> None:
        if OBS.enabled:
            OBS.registry.counter(
                f"service/serve_{event}",
                help="serve endpoint submissions by outcome",
            ).inc(amount)


def _event_line(doc: dict) -> bytes:
    """One NDJSON event."""
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
