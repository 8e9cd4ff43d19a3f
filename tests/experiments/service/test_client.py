"""``ServeClient``'s HTTP/1.1 framing, byte by byte.

Each test runs a stub socket server that answers every request it
reads with scripted bytes, written in the pieces the test gives: the
client must parse each framing however the bytes are split, pool a
connection exactly when its response keeps it alive, and refuse a
response it cannot frame with a :class:`ProtocolError` that names the
fault.
"""

from __future__ import annotations

import queue
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.service.client import (
    ProtocolError,
    ServeClient,
    ServeError,
)

_OK = b"HTTP/1.1 200 OK\r\n"


class _Stub:
    """A server on an OS-assigned port that serves one connection at a
    time.  Each request it reads is answered with the next scripted
    response, one ``sendall`` per piece, and the connection is closed
    after it when the script says so."""

    def __init__(self) -> None:
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)  # closing it would not end accept()
        self.port = self.listener.getsockname()[1]
        self.requests = []
        self.connections = 0
        self._script = queue.Queue()
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._serve)

    def __enter__(self) -> "_Stub":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._done.set()
        self._thread.join(timeout=30)
        self.listener.close()
        assert not self._thread.is_alive()

    def answer(self, pieces, close: bool = False) -> None:
        self._script.put((list(pieces), close))

    def _serve(self) -> None:
        while not self._done.is_set():
            try:
                conn, _ = self.listener.accept()
            except socket.timeout:
                continue
            self.connections += 1
            with conn:
                conn.settimeout(10)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                try:
                    self._converse(conn)
                except OSError:
                    pass  # the client gave up on a response it refused

    def _converse(self, conn: socket.socket) -> None:
        data = b""
        while True:
            while b"\r\n\r\n" not in data:
                more = conn.recv(1 << 16)
                if not more:
                    return  # the client closed the connection
                data += more
            head, _, data = data.partition(b"\r\n\r\n")
            length = 0
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.lower() == b"content-length":
                    length = int(value)
            while len(data) < length:
                data += conn.recv(1 << 16)
            self.requests.append(head + b"\r\n\r\n" + data[:length])
            data = data[length:]
            pieces, close = self._script.get(timeout=10)
            for index, piece in enumerate(pieces):
                if index:
                    time.sleep(0.0005)  # let the client read a part
                conn.sendall(piece)
            if close:
                return


@pytest.fixture
def stub():
    with _Stub() as stub:
        yield stub


@pytest.fixture
def client(stub):
    with ServeClient(port=stub.port, timeout=10) as client:
        yield client


def _chunked(*chunks: bytes) -> bytes:
    framed = b"".join(b"%x\r\n%s\r\n" % (len(c), c) for c in chunks)
    return framed + b"0\r\n\r\n"


class TestFraming:
    def test_chunked_body_with_extensions_and_a_trailer(self, stub, client):
        stub.answer(
            [
                _OK + b"Transfer-Encoding: chunked\r\n\r\n5;name=value\r\n",
                b"hello\r\n6 ; a=b\r\n world\r\n0;last\r\n",
                b"X-Trailer: yes\r\nX-Other: no\r\n\r\n",
            ]
        )
        assert client._request("GET", "/a") == (200, b"hello world")
        stub.answer([_OK + b"Content-Length: 2\r\n\r\n{}"])
        assert client.stats() == {}
        assert stub.connections == 1
        assert len(client._idle) == 1

    def test_content_length_body(self, stub, client):
        stub.answer(
            [b"HTTP/1.1 404 Not Found\r\nContent-Length: 5\r\n\r\nnope!"]
        )
        assert client._request("GET", "/a") == (404, b"nope!")
        stub.answer([b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\n\r\n"])
        assert client._request("GET", "/a") == (200, b"")
        assert stub.connections == 1

    @pytest.mark.parametrize(
        "head",
        [b"HTTP/1.0 200 OK\r\n\r\n", _OK + b"Connection: close\r\n\r\n"],
        ids=["http-1.0", "connection-close"],
    )
    def test_close_delimited_body(self, stub, client, head):
        stub.answer([head + b'{"a": ', b"1}\n"], close=True)
        assert client.stats() == {"a": 1}
        assert client._idle == []
        stub.answer([_OK + b"Content-Length: 2\r\n\r\n{}"])
        assert client.stats() == {}
        assert stub.connections == 2

    def test_a_response_sent_one_byte_per_send(self, stub, client):
        stream = b'{"event": "accepted"}\n{"event": "result"}\n'
        response = (
            _OK
            + b"Content-Type: application/x-ndjson\r\n"
            + b"Transfer-Encoding: chunked\r\n\r\n"
            + _chunked(stream[:21], stream[21:])
        )
        stub.answer([response[i : i + 1] for i in range(len(response))])
        events = [{"event": "accepted"}, {"event": "result"}]
        assert client.submit({}) == events
        assert len(client._idle) == 1

    def test_a_post_is_one_send_with_its_length(
        self, stub, client, monkeypatch
    ):
        """Head and body leave in one send, and a POST carries its
        ``Content-Length`` even when its body is empty."""
        sends = []
        sendall = socket.socket.sendall
        main = threading.current_thread()

        def recording(sock, data, *args):
            if threading.current_thread() is main:
                sends.append(bytes(data))
            return sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", recording)
        stub.answer(
            [b"HTTP/1.1 400 Bad Request\r\nContent-Length: 2\r\n\r\n{}"]
        )
        with pytest.raises(ServeError, match="HTTP 400"):
            client.submit({"a": 1})
        stub.answer([_OK + b"Content-Length: 0\r\n\r\n"])
        assert client._request("POST", "/simulate") == (200, b"")
        assert sends == stub.requests
        assert [request.split(b"\r\n")[0] for request in sends] == [
            b"POST /simulate HTTP/1.1"
        ] * 2
        assert b"\r\nContent-Length: 8\r\n" in sends[0]
        assert sends[0].endswith(b'\r\n\r\n{"a": 1}')
        assert sends[1].endswith(b"\r\nContent-Length: 0\r\n\r\n")
        assert b"\r\nHost: 127.0.0.1:" in sends[1]


#: Responses the client cannot frame, and the fault each names.  A
#: response the stub closes after is cut short; the others wait for
#: the client to hang up.
_UNFRAMEABLE = {
    "not-http": ([b"SSH-2.0-OpenSSH_9.0\r\n"], False, "bad status line"),
    "status-line-cut-short": ([b"HTTP/1.1 20"], True, "head cut short"),
    "colon-less-header": (
        [_OK + b"Content-Length 2\r\n\r\n{}"],
        False,
        "header line without a colon: b'Content-Length 2'",
    ),
    "bad-content-length": (
        [_OK + b"Content-Length: -2\r\n\r\n{}"],
        False,
        "bad Content-Length",
    ),
    "bad-chunk-size": (
        [_OK + b"Transfer-Encoding: chunked\r\n\r\n0x2\r\n{}\r\n"],
        False,
        "bad chunk size: b'0x2'",
    ),
    "chunk-without-crlf": (
        [_OK + b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}0\r\n\r\n"],
        False,
        "chunk data not followed by CRLF",
    ),
    "body-cut-short": (
        [_OK + b"Content-Length: 10\r\n\r\n{}"],
        True,
        "body cut short after 2 of 10 bytes",
    ),
    "chunk-cut-short": (
        [_OK + b"Transfer-Encoding: chunked\r\n\r\na\r\n{}"],
        True,
        "chunk cut short after 2 of 10 bytes",
    ),
    "gzip": (
        [_OK + b"Transfer-Encoding: gzip, chunked\r\n\r\n"],
        False,
        "unsupported Transfer-Encoding: b'gzip, chunked'",
    ),
    "head-over-64-kib": (
        [_OK + b"X-Pad: " + b"a" * (70 << 10)],
        False,
        "response head exceeds 64 KiB",
    ),
}


class TestUnframeable:
    @pytest.mark.parametrize(
        "pieces,close,fault", _UNFRAMEABLE.values(), ids=list(_UNFRAMEABLE)
    )
    def test_is_a_protocol_error_and_closes(
        self, stub, client, pieces, close, fault
    ):
        """``healthz()`` reads such a response as no server, so a poll
        loop keeps waiting; ``stats()`` and ``submit()`` raise.  No
        such connection is pooled."""
        for _ in range(3):
            stub.answer(pieces, close)
        assert client.healthz() is False
        with pytest.raises(ProtocolError, match=fault):
            client.stats()
        with pytest.raises(ProtocolError, match=fault):
            client.submit({})
        assert client._idle == []
        assert stub.connections == 3


@st.composite
def _responses(draw):
    """(pieces, status, body, keep_alive) of one generated response."""
    status = draw(st.integers(200, 599).filter(lambda s: s not in (204, 304)))
    version = draw(st.sampled_from([b"HTTP/1.1", b"HTTP/1.0"]))
    framings = ["chunked", "length", "close"]
    framing = draw(st.sampled_from(framings[version == b"HTTP/1.0" :]))
    close = draw(st.booleans())
    body = draw(st.binary(max_size=3000))
    reason = draw(st.sampled_from([b"", b" OK", b" Some Reason"]))
    lines = [b"%s %d%s" % (version, status, reason)]
    values = st.text(
        st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=20
    ).map(str.encode)
    for name, value in draw(
        st.lists(
            st.tuples(
                st.sampled_from([b"Content-Type", b"Server", b"X-Key"]), values
            ),
            max_size=3,
        )
    ):
        lines.append(name + b":" + value)
    if close:
        tokens = st.sampled_from([b"close", b"Close", b"te, close"])
        lines.append(b"Connection: " + draw(tokens))
    if framing == "chunked":
        lines.append(b"Transfer-Encoding: chunked")
        cuts = st.sets(st.integers(1, max(1, len(body) - 1)), max_size=4)
        cuts = sorted(draw(cuts))
        encoded = b""
        for start, end in zip([0] + cuts, cuts + [len(body)]):
            chunk = body[start:end]
            if not chunk:
                continue
            size = draw(st.sampled_from([b"%x", b"%X", b"00%x"])) % len(chunk)
            extension = draw(st.sampled_from([b"", b";x=y", b" ;name"]))
            encoded += size + extension + b"\r\n" + chunk + b"\r\n"
        trailer = draw(st.sampled_from([b"", b"X-Digest: abc\r\n"]))
        payload = encoded + b"0\r\n" + trailer + b"\r\n"
    elif framing == "length":
        lines.append(b"Content-Length: %d" % len(body))
        payload = body
    else:
        payload = body
    raw = b"\r\n".join(lines) + b"\r\n\r\n" + payload
    cuts = sorted(draw(st.sets(st.integers(1, len(raw) - 1), max_size=8)))
    pieces = [raw[a:b] for a, b in zip([0] + cuts, cuts + [len(raw)])]
    keep_alive = version == b"HTTP/1.1" and not close and framing != "close"
    return pieces, status, body, keep_alive


class TestGeneratedResponses:
    @pytest.mark.hypothesis  # its @given runs inside, on one stub
    def test_every_split_reads_back_the_same_response(self):
        """A generated status, framing and body, written in randomly
        split pieces, comes back as the same ``(status, body)``, and
        the connection is pooled exactly when the response keeps it
        alive."""
        with _Stub() as stub:

            @settings(max_examples=50, deadline=None)
            @given(case=_responses())
            def check(case):
                pieces, status, body, keep_alive = case
                stub.answer(pieces, close=not keep_alive)
                with ServeClient(port=stub.port, timeout=10) as client:
                    assert client._request("GET", "/a") == (status, body)
                    assert len(client._idle) == keep_alive

            check()
