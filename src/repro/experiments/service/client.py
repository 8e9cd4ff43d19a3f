"""Stdlib client for the ``pearl-sim serve`` endpoint.

Synchronous on purpose: tests, CI smoke checks and notebook users
submit specs with plain :mod:`http.client` and read the NDJSON event
stream line by line.  :meth:`ServeClient.burst` fires N concurrent
submissions of the same document from a thread pool — the coalescing
check in CI counts server-side executions afterwards.

The server keeps connections alive, so the client keeps a pool of idle
ones: a request takes one (or opens one), and puts it back when the
response has been read.  Each connection serves one request at a time,
so concurrent threads never share one.
"""

from __future__ import annotations

import http.client
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

#: What a kept-alive connection raises when the server closed it while
#: it sat idle (past the server's read deadline, or on its shutdown):
#: ``http.client.RemoteDisconnected`` is a ``ConnectionResetError``.
_STALE = (ConnectionResetError, BrokenPipeError)


class ServeError(RuntimeError):
    """A non-200 response from the server."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


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
        self._idle: List[http.client.HTTPConnection] = []
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

    def _request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> "tuple[int, bytes]":
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            try:
                reused = conn.sock is not None
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
            except _STALE:
                if not reused:
                    raise
                # The server closed the idle connection before this
                # request reached it: send it once more on a new one.
                conn.close()
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
            payload = response.read()
        except BaseException:
            conn.close()
            raise
        with self._lock:
            self._idle.append(conn)
        return response.status, payload

    # -- endpoints ------------------------------------------------------------

    def healthz(self) -> bool:
        try:
            status, _ = self._request("GET", "/healthz")
        except OSError:
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
        503 backpressure).  The returned list always ends with a
        ``result`` or ``error`` event.
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
