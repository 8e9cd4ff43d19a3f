"""Stdlib client for the ``pearl-sim serve`` endpoint.

Synchronous on purpose: tests, CI smoke checks and notebook users
submit specs and read the NDJSON event stream with no dependency and
no event loop.  :meth:`ServeClient.burst` fires N concurrent
submissions of the same document from a thread pool — the coalescing
check in CI counts server-side executions afterwards.

The client speaks just the HTTP/1.1 this server needs over a plain
:mod:`socket`: a request is one ``sendall`` of its head and body, and
a response is parsed from the connection's read buffer, its body
framed by ``Transfer-Encoding: chunked`` (chunk extensions and
trailers skipped), by ``Content-Length`` or by the end of the stream.
A response it cannot frame raises :class:`ProtocolError`, whose
message names the fault, and its connection is closed.

The server keeps connections alive, so the client keeps a pool of idle
ones: a request takes one (or opens one), and puts it back when the
response has been read, unless the response was HTTP/1.0, carried
``Connection: close`` or ended with the stream.  Each connection serves
one request at a time, so concurrent threads never share one.  A
request on a reused connection that the server closed while it sat
idle is sent once more on a new connection; a failure on a new
connection is raised.
"""

from __future__ import annotations

import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Tuple

#: What a kept-alive connection raises when the server closed it while
#: it sat idle (past the server's read deadline, or on its shutdown):
#: the send or the read is reset, the pipe is broken, or the stream
#: ends before a status line (raised as a ``ConnectionResetError``).
_STALE = (ConnectionResetError, BrokenPipeError)

#: A response head (status line and headers), a chunk-size line or a
#: trailer line over this many bytes is refused, as the server refuses
#: a longer request header line.
_MAX_HEAD_BYTES = 64 << 10

_RECV_BYTES = 64 << 10
_HEX_DIGITS = b"0123456789abcdefABCDEF"


class ServeError(RuntimeError):
    """A non-200 response from the server."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ProtocolError(Exception):
    """A response the client cannot frame: a bad status line, a header
    line without a colon, a bad ``Content-Length`` or chunk size, a
    chunk not followed by its CRLF, a head or body cut short, a
    ``Transfer-Encoding`` other than ``chunked`` or a head over 64 KiB.
    The message names the fault."""


class _Connection:
    """One socket to the server and the bytes read from it that no
    response has consumed yet."""

    __slots__ = ("sock", "buffer", "_pos")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = bytearray()
        self._pos = 0  # where the unconsumed bytes start

    def close(self) -> None:
        self.sock.close()

    def response(self) -> Tuple[int, bytes, bool]:
        """Read one response: its status, its body, and whether the
        connection may carry the next request."""
        version, status, headers = self._head()
        tokens = headers.get(b"connection", b"").lower().split(b",")
        keep_alive = version == b"HTTP/1.1" and b"close" not in {
            token.strip() for token in tokens
        }
        encoding = headers.get(b"transfer-encoding")
        length = headers.get(b"content-length")
        if encoding is not None:
            if encoding.lower() != b"chunked":
                raise ProtocolError(
                    f"unsupported Transfer-Encoding: {encoding[:64]!r}"
                )
            body = self._chunked()
        elif length is not None:
            # At most 18 digits: int() refuses over 4,300, and no body
            # this client reads comes near 10**18 bytes.
            if not (length.isdigit() and len(length) <= 18):
                raise ProtocolError(f"bad Content-Length: {length[:64]!r}")
            body = self._exactly(int(length), "body")
        else:
            body = self._to_end()
            keep_alive = False
        del self.buffer[: self._pos]
        self._pos = 0
        return status, body, keep_alive

    # -- framing --------------------------------------------------------------

    def _fill(self) -> bool:
        """Append the next bytes the server sent; ``False`` at the end
        of the stream."""
        data = self.sock.recv(_RECV_BYTES)
        self.buffer += data
        return bool(data)

    def _head(self) -> "tuple[bytes, int, Dict[bytes, bytes]]":
        """The status line's version and status, and the headers by
        lower-cased name.  The status line is checked as soon as it is
        complete, so a peer that is no HTTP server fails at once."""
        start = self._pos
        if len(self.buffer) == start and not self._fill():
            raise ConnectionResetError(
                "the server closed the connection before a status line"
            )
        line_end = self._find(b"\r\n", start, "response head")
        line = bytes(self.buffer[start:line_end])
        version, _, rest = line.partition(b" ")
        code = rest[:3]
        if (
            version not in (b"HTTP/1.1", b"HTTP/1.0")
            or not (len(code) == 3 and code.isdigit())
            or rest[3:4] not in (b"", b" ")
        ):
            raise ProtocolError(f"bad status line: {line[:64]!r}")
        # The head ends at the first empty line, which may be the one
        # right after the status line.
        head_end = self._find(b"\r\n\r\n", start, "response head")
        self._pos = head_end + 4
        headers: Dict[bytes, bytes] = {}
        if head_end > line_end:
            for field in bytes(self.buffer[line_end + 2 : head_end]).split(
                b"\r\n"
            ):
                name, colon, value = field.partition(b":")
                if not colon:
                    raise ProtocolError(
                        f"header line without a colon: {field[:64]!r}"
                    )
                headers[name.strip().lower()] = value.strip()
        return version, int(code), headers

    def _find(self, marker: bytes, start: int, what: str) -> int:
        """Index of the first ``marker`` at or after ``start``, reading
        until it arrives within ``_MAX_HEAD_BYTES`` of ``start``."""
        searched = start
        while True:
            index = self.buffer.find(marker, searched)
            if index >= 0:
                if index - start > _MAX_HEAD_BYTES:
                    break
                return index
            if len(self.buffer) - start > _MAX_HEAD_BYTES:
                break
            searched = max(start, len(self.buffer) - len(marker) + 1)
            if not self._fill():
                raise ProtocolError(
                    f"{what} cut short after "
                    f"{len(self.buffer) - start} bytes"
                )
        raise ProtocolError(f"{what} exceeds {_MAX_HEAD_BYTES >> 10} KiB")

    def _exactly(self, count: int, what: str) -> bytes:
        """The next ``count`` bytes."""
        start = self._pos
        while len(self.buffer) - start < count:
            if not self._fill():
                raise ProtocolError(
                    f"{what} cut short after {len(self.buffer) - start} "
                    f"of {count} bytes"
                )
        self._pos = start + count
        return bytes(self.buffer[start : self._pos])

    def _line(self, what: str) -> bytes:
        """The next line, without its CRLF."""
        start = self._pos
        end = self._find(b"\r\n", start, what)
        self._pos = end + 2
        return bytes(self.buffer[start:end])

    def _chunked(self) -> bytes:
        chunks = []
        while True:
            line = self._line("chunk-size line")
            size = line.partition(b";")[0].strip()  # drop any extension
            if not size or size.strip(_HEX_DIGITS) or len(size) > 16:
                raise ProtocolError(f"bad chunk size: {line[:64]!r}")
            count = int(size, 16)
            if not count:
                break
            chunks.append(self._exactly(count, "chunk"))
            if self._exactly(2, "chunk") != b"\r\n":
                raise ProtocolError("chunk data not followed by CRLF")
        while self._line("trailer section"):  # skip any trailer fields
            pass
        return b"".join(chunks)

    def _to_end(self) -> bytes:
        """Everything up to the end of the stream."""
        while self._fill():
            pass
        body = bytes(self.buffer[self._pos :])
        self._pos = len(self.buffer)
        return body


class ServeClient:
    """Talks to one :class:`~.server.SweepServer`.

    Use it as a context manager, or call :meth:`close`, to close the
    pooled connections.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8639, timeout: float = 120.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        authority = f"[{host}]" if ":" in host else host
        self._host_header = f"Host: {authority}:{port}\r\n"
        self._idle: List[_Connection] = []
        self._lock = threading.Lock()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close every idle pooled connection."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    # -- low-level ------------------------------------------------------------

    def _connect(self) -> _Connection:
        """A new connection; ``timeout`` bounds the connect and every
        later send and read."""
        sock = socket.create_connection((self.host, self.port), self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            sock.close()
            raise
        return _Connection(sock)

    def _request(
        self, method: str, path: str, body: bytes = b""
    ) -> "tuple[int, bytes]":
        """Send one request and read its response: (status, body).

        Every ``POST`` carries its ``Content-Length``, ``0`` included:
        the server answers a ``POST`` without one with a ``411``.
        """
        head = f"{method} {path} HTTP/1.1\r\n{self._host_header}"
        if method == "POST":
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        message = (head + "\r\n").encode("latin-1") + body
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        reused = conn is not None
        if conn is None:
            conn = self._connect()
        try:
            try:
                conn.sock.sendall(message)
                status, payload, keep_alive = conn.response()
            except _STALE:
                if not reused:
                    raise
                # The server closed the idle connection before this
                # request reached it: send it once more on a new one.
                conn.close()
                conn = self._connect()
                conn.sock.sendall(message)
                status, payload, keep_alive = conn.response()
        except BaseException:
            conn.close()
            raise
        if keep_alive:
            with self._lock:
                self._idle.append(conn)
        else:
            conn.close()
        return status, payload

    # -- endpoints ------------------------------------------------------------

    def healthz(self) -> bool:
        """Whether a server answers ``/healthz`` with a 200; ``False``
        also when nothing listens or the peer speaks no HTTP."""
        try:
            status, _ = self._request("GET", "/healthz")
        except (OSError, ProtocolError):
            return False
        return status == 200

    def stats(self) -> Dict[str, Any]:
        status, payload = self._request("GET", "/stats")
        if status != 200:
            raise ServeError(status, payload.decode("utf-8", "replace"))
        return json.loads(payload)

    def submit(self, doc: Dict[str, Any]) -> List[Dict[str, Any]]:
        """POST one spec document; return the full event stream.

        Raises :class:`ServeError` on a non-200 response (400 bad spec,
        503 backpressure) and :class:`ProtocolError` on a response it
        cannot frame.  The returned list always ends with a ``result``
        or ``error`` event.
        """
        body = json.dumps(doc).encode("utf-8")
        status, payload = self._request("POST", "/simulate", body)
        if status != 200:
            try:
                message = json.loads(payload).get("error", "")
            except ValueError:
                message = payload.decode("utf-8", "replace")
            raise ServeError(status, message)
        events = [
            json.loads(line)
            for line in payload.decode("utf-8").splitlines()
            if line.strip()
        ]
        return events

    def submit_result(self, doc: Dict[str, Any]):
        """Submit and decode the final result into a ``JobResult``."""
        from .spec_codec import result_from_doc

        events = self.submit(doc)
        final = events[-1]
        if final.get("event") != "result":
            raise ServeError(500, f"terminal event: {final}")
        return result_from_doc(final["result"])

    def burst(
        self, doc: Dict[str, Any], count: int, threads: int = 16
    ) -> List[List[Dict[str, Any]]]:
        """Submit the same document ``count`` times concurrently."""
        with ThreadPoolExecutor(max_workers=min(threads, count)) as pool:
            return list(pool.map(lambda _: self.submit(doc), range(count)))
