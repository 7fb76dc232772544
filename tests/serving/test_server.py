"""Tests for repro.serving.server: the asyncio HTTP/1.1 front end.

Two layers.  ``TestHttpServer`` runs a real server on an ephemeral port
inside one event loop and speaks raw HTTP/1.1 at it — the same code path
``python -m repro.serving serve`` deploys.  ``TestProtocol`` and the fuzz
drive :class:`HttpProtocol` directly on a fake transport with a stub app,
so every input boundary (pipelining, dribbled bytes, line ends, bodies,
the size caps, backpressure) is checked byte for byte.
"""

import asyncio
import json
import re
import socket
from urllib.parse import unquote

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.server import (
    _MAX_HEADER_BYTES,
    _MAX_REQUEST_LINE,
    HttpProtocol,
    serve,
)


def _run(coro):
    return asyncio.run(coro)


async def _request(
    port: int, target: str, *, close: bool = False, raw: bytes | None = None
) -> tuple[int, dict[str, str], bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        if raw is None:
            connection = "close" if close else "keep-alive"
            raw = (
                f"GET {target} HTTP/1.1\r\nhost: t\r\n"
                f"connection: {connection}\r\n\r\n"
            ).encode()
        writer.write(raw)
        await writer.drain()
        return await _read_response(reader)
    finally:
        writer.close()


async def _read_response(reader) -> tuple[int, dict[str, str], bytes]:
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers["content-length"]))
    return status, headers, body


async def _with_server(app, fn):
    server = await serve(app, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    try:
        return await fn(port)
    finally:
        server.close()
        await server.wait_closed()


class TestHttpServer:
    def test_healthz_over_a_socket(self, serving_app):
        async def scenario(port):
            status, headers, body = await _request(port, "/healthz")
            assert status == 200
            assert headers["content-type"] == "application/json"
            assert json.loads(body)["status"] == "ok"

        _run(_with_server(serving_app, scenario))

    def test_socket_bytes_match_in_process_bytes(self, serving_app):
        target = "/v1/search?hashtag=twittermigration&limit=5"

        async def scenario(port):
            _, _, body = await _request(port, target)
            return body

        body = _run(_with_server(serving_app, scenario))
        assert body == serving_app.get(target)[1]

    def test_keep_alive_serves_multiple_requests(self, serving_app):
        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                for _ in range(3):
                    writer.write(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
                    await writer.drain()
                    status, _, body = await _read_response(reader)
                    assert status == 200
                    assert json.loads(body)["status"] == "ok"
            finally:
                writer.close()

        _run(_with_server(serving_app, scenario))

    def test_errors_surface_as_http_statuses(self, serving_app):
        async def scenario(port):
            status, _, _ = await _request(port, "/no-such-path")
            assert status == 404
            status, _, _ = await _request(port, "/v1/search?limit=1")
            assert status == 400
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(b"POST /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
                await writer.drain()
                status, _, _ = await _read_response(reader)
                assert status == 405
            finally:
                writer.close()

        _run(_with_server(serving_app, scenario))

    def test_percent_encoded_targets_decode(self, serving_app):
        target = "/v1/search?q=bye%20bye%20twitter&limit=5"

        async def scenario(port):
            status, _, body = await _request(port, target)
            assert status == 200
            return body

        body = _run(_with_server(serving_app, scenario))
        assert body == serving_app.get(target)[1]

    def test_pipelined_requests_in_one_write(self, serving_app):
        targets = ["/healthz", "/v1/instances?limit=2", "/v1/trends"]

        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(
                    b"".join(
                        f"GET {t} HTTP/1.1\r\nhost: t\r\n\r\n".encode()
                        for t in targets
                    )
                )
                await writer.drain()
                return [(await _read_response(reader))[2] for _ in targets]
            finally:
                writer.close()

        bodies = _run(_with_server(serving_app, scenario))
        assert bodies == [serving_app.get(t)[1] for t in targets]

    def test_connection_close_ends_the_connection(self, serving_app):
        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(
                    b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n"
                    b"GET /healthz HTTP/1.1\r\n\r\n"
                )
                await writer.drain()
                status, _, _ = await _read_response(reader)
                return status, await reader.read()
            finally:
                writer.close()

        status, rest = _run(_with_server(serving_app, scenario))
        assert status == 200
        assert rest == b""  # closed: the second request is never answered

    def test_slow_reader_gets_every_response_in_order(self, serving_app):
        # ~100 pipelined answers of ~10 KB overrun the transport's write
        # buffer while the client reads nothing, so the server must pause
        # and resume reading without losing or reordering a response
        targets = [f"/v1/search?q=mastodon&limit=50&offset={i}" for i in range(100)]

        async def scenario(port):
            loop = asyncio.get_running_loop()
            sock = socket.create_connection(("127.0.0.1", port))
            try:
                payload = b"".join(
                    f"GET {t} HTTP/1.1\r\n\r\n".encode() for t in targets
                )
                await loop.run_in_executor(None, sock.sendall, payload)
                await asyncio.sleep(0.2)  # let the server fill its buffers
                reader, writer = await asyncio.open_connection(sock=sock)
                bodies = [(await _read_response(reader))[2] for _ in targets]
                writer.close()
                return bodies
            except BaseException:
                sock.close()
                raise

        bodies = _run(_with_server(serving_app, scenario))
        assert bodies == [serving_app.get(t)[1] for t in targets]


# -- the protocol on a fake transport ------------------------------------------


class StubApp:
    """Answers ``METHOD path?query`` as the body; records every call."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, str, str]] = []

    def handle(self, path: str, query_string: str = "", method: str = "GET"):
        self.calls.append((path, query_string, method))
        status = 404 if path == "/missing" else 200
        return status, f"{method} {path}?{query_string}".encode("utf-8")


class FakeTransport:
    """Collects writes; pauses its protocol past ``high_water`` bytes."""

    def __init__(self, high_water: int | None = None) -> None:
        self.written = bytearray()
        self.closed = False
        self.reading = True
        self.high_water = high_water
        self.protocol: HttpProtocol | None = None

    def write(self, data: bytes) -> None:
        assert not self.closed, "write after close"
        self.written += data
        if self.high_water is not None and len(self.written) > self.high_water:
            self.protocol.pause_writing()

    def drain(self) -> None:
        """The peer read everything: the buffer empties, writing resumes."""
        self.written.clear()
        self.protocol.resume_writing()

    def close(self) -> None:
        self.closed = True

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True


def _connect(high_water: int | None = None):
    app = StubApp()
    protocol = HttpProtocol(app)
    transport = FakeTransport(high_water)
    transport.protocol = protocol
    protocol.connection_made(transport)
    return app, protocol, transport


_RESPONSE = re.compile(
    rb"HTTP/1\.1 (\d{3}) [A-Za-z ]+\r\ncontent-type: application/json\r\n"
    rb"content-length: (\d+)\r\nconnection: keep-alive\r\n\r\n"
)


def _responses(written: bytes) -> list[tuple[int, bytes]]:
    """Split written bytes into ``(status, body)`` responses; all must parse."""
    out = []
    pos = 0
    while pos < len(written):
        match = _RESPONSE.match(written, pos)
        assert match, written[pos : pos + 80]
        start = match.end()
        end = start + int(match.group(2))
        out.append((int(match.group(1)), bytes(written[start:end])))
        pos = end
    return out


class TestProtocol:
    def test_exact_response_bytes(self):
        app, protocol, transport = _connect()
        protocol.data_received(b"GET /a?x=1 HTTP/1.1\r\nhost: t\r\n\r\n")
        protocol.data_received(b"GET /missing HTTP/1.1\r\n\r\n")
        assert bytes(transport.written) == (
            b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n"
            b"content-length: 10\r\nconnection: keep-alive\r\n\r\nGET /a?x=1"
            b"HTTP/1.1 404 Not Found\r\ncontent-type: application/json\r\n"
            b"content-length: 13\r\nconnection: keep-alive\r\n\r\nGET /missing?"
        )
        assert not transport.closed

    def test_two_pipelined_requests_in_one_write(self):
        app, protocol, transport = _connect()
        protocol.data_received(
            b"GET /one HTTP/1.1\r\nhost: t\r\n\r\nget /two?q=%20 HTTP/1.1\r\n\r\n"
        )
        assert app.calls == [("/one", "", "GET"), ("/two", "q=%20", "GET")]
        assert [b for _, b in _responses(transport.written)] == [
            b"GET /one?",
            b"GET /two?q=%20",
        ]

    def test_request_dribbled_one_byte_at_a_time(self):
        app, protocol, transport = _connect()
        raw = b"GET /a%20b HTTP/1.1\r\nhost: t\r\nx-long: " + b"y" * 300 + b"\r\n\r\n"
        for i in range(len(raw)):
            assert transport.written == b""
            protocol.data_received(raw[i : i + 1])
        assert app.calls == [("/a b", "", "GET")]
        assert _responses(transport.written) == [(200, b"GET /a b?")]

    def test_bare_lf_heads(self):
        app, protocol, transport = _connect()
        protocol.data_received(
            b"GET /lf HTTP/1.1\nhost: t\n\nGET /mixed HTTP/1.1\r\nhost: t\n\r\n"
            b"GET /nohdr HTTP/1.1\n\n"
        )
        assert [c[0] for c in app.calls] == ["/lf", "/mixed", "/nohdr"]
        assert not transport.closed

    def test_http10_closes_after_the_response(self):
        app, protocol, transport = _connect()
        protocol.data_received(b"GET /a HTTP/1.0\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
        assert [c[0] for c in app.calls] == ["/a"]
        assert len(_responses(transport.written)) == 1
        assert transport.closed

    def test_connection_close_closes_after_the_response(self):
        app, protocol, transport = _connect()
        protocol.data_received(
            b"GET /a HTTP/1.1\r\nConnection: Close\r\n\r\nGET /b HTTP/1.1\r\n\r\n"
        )
        assert [c[0] for c in app.calls] == ["/a"]
        assert transport.closed

    def test_keep_alive_stays_open(self):
        _, protocol, transport = _connect()
        protocol.data_received(b"GET /a HTTP/1.1\r\nconnection: keep-alive\r\n\r\n")
        assert not transport.closed

    def test_content_length_body_drained_before_next_request(self):
        app, protocol, transport = _connect()
        protocol.data_received(
            b"POST /a HTTP/1.1\r\ncontent-length: 20\r\n\r\nGET /body HTTP/1.1"
        )
        assert app.calls == []  # answered only once the whole body is in
        protocol.data_received(b"\r\n")
        assert app.calls == [("/a", "", "POST")]
        protocol.data_received(b"GET /b HTTP/1.1\r\n\r\n")
        assert app.calls == [("/a", "", "POST"), ("/b", "", "GET")]

    def test_first_content_length_wins(self):
        app, protocol, _ = _connect()
        protocol.data_received(
            b"GET /a HTTP/1.1\r\ncontent-length: 0\r\ncontent-length: 4\r\n\r\n"
            b"GET /b HTTP/1.1\r\n\r\n"
        )
        assert [c[0] for c in app.calls] == ["/a", "/b"]

    def test_bad_content_length_closes(self):
        for value in (b"abc", b"-1"):
            app, protocol, transport = _connect()
            protocol.data_received(
                b"GET /a HTTP/1.1\r\ncontent-length: " + value + b"\r\n\r\n"
            )
            assert app.calls == [] and transport.written == b""
            assert transport.closed

    def test_request_line_cap_is_414(self):
        at_cap = b"GET /" + b"a" * (_MAX_REQUEST_LINE - 16) + b" HTTP/1.1\r\n"
        assert len(at_cap) == _MAX_REQUEST_LINE
        app, protocol, transport = _connect()
        protocol.data_received(at_cap + b"\r\n")
        assert len(app.calls) == 1 and not transport.closed
        # one byte more is refused, whether or not the line is complete
        for raw in (b"GET /a" + at_cap[5:], b"G" * (_MAX_REQUEST_LINE + 1)):
            app, protocol, transport = _connect()
            protocol.data_received(raw)
            assert bytes(transport.written) == b"HTTP/1.1 414 URI Too Long\r\n\r\n"
            assert transport.closed and app.calls == []

    def test_malformed_request_line_is_400(self):
        for raw in (b"GARBAGE\r\n", b"GET /only-two\r\n", b"\r\n", b"\n"):
            app, protocol, transport = _connect()
            protocol.data_received(raw)
            assert bytes(transport.written) == b"HTTP/1.1 400 Bad Request\r\n\r\n"
            assert transport.closed and app.calls == []

    def test_header_block_cap_closes_without_answer(self):
        def head(header_bytes: int) -> bytes:
            # header block = one header line plus the blank line
            filler = b"x" * (header_bytes - len(b"x-pad: \r\n\r\n"))
            return b"GET /a HTTP/1.1\r\nx-pad: " + filler + b"\r\n\r\n"

        app, protocol, transport = _connect()
        protocol.data_received(head(_MAX_HEADER_BYTES))
        assert len(app.calls) == 1 and not transport.closed
        app, protocol, transport = _connect()
        protocol.data_received(head(_MAX_HEADER_BYTES + 1))
        assert app.calls == [] and transport.written == b"" and transport.closed
        # an unfinished block past the cap closes too
        app, protocol, transport = _connect()
        protocol.data_received(head(_MAX_HEADER_BYTES + 3)[:-2])
        assert transport.closed and app.calls == []

    def test_reading_paused_while_the_write_buffer_is_full(self):
        app, protocol, transport = _connect(high_water=64)
        protocol.data_received(
            b"GET /first HTTP/1.1\r\n\r\nGET /second HTTP/1.1\r\n\r\n"
        )
        # the first answer overran the high-water mark: reading stops and
        # the buffered second request waits
        assert [c[0] for c in app.calls] == ["/first"]
        assert not transport.reading
        protocol.data_received(b"GET /third HTTP/1.1\r\n\r\n")
        assert [c[0] for c in app.calls] == ["/first"]
        transport.drain()
        assert transport.reading is False  # the second answer paused it again
        assert [c[0] for c in app.calls] == ["/first", "/second"]
        transport.drain()
        transport.drain()
        assert [c[0] for c in app.calls] == ["/first", "/second", "/third"]

    def test_nothing_is_answered_after_close(self):
        app, protocol, transport = _connect()
        protocol.connection_lost(None)
        protocol.data_received(b"GET /a HTTP/1.1\r\n\r\n")
        assert app.calls == [] and transport.written == b""


# -- fuzz -------------------------------------------------------------------------

_PATHS = st.text(alphabet="abcxyz0189/-._~%", min_size=0, max_size=12)
_HEADER_NAMES = st.sampled_from(["host", "x-a", "Accept", "user-agent", "x-b"])
_HEADER_VALUES = st.text(alphabet="abcdefghij 0123456789-,;=/", max_size=20)


@st.composite
def _request_stream(draw):
    """Complete requests (LF or CRLF, headers, bodies) plus what each must get."""
    raw = bytearray()
    expected = []
    for _ in range(draw(st.integers(1, 6))):
        eol = draw(st.sampled_from([b"\r\n", b"\n"]))
        method = draw(st.sampled_from(["GET", "get", "POST", "HEAD"]))
        path = "/" + draw(_PATHS)
        query = draw(st.one_of(st.none(), st.text(alphabet="a=&b1", max_size=8)))
        target = path if query is None else f"{path}?{query}"
        raw += f"{method} {target} HTTP/1.1".encode() + eol
        for _ in range(draw(st.integers(0, 3))):
            raw += f"{draw(_HEADER_NAMES)}: {draw(_HEADER_VALUES)}".encode() + eol
        body = draw(st.binary(max_size=30))
        if body or draw(st.booleans()):
            raw += f"Content-Length: {len(body)}".encode() + eol
        raw += eol + body
        expected.append(f"{method.upper()} {unquote(path)}?{query or ''}".encode())
    return bytes(raw), expected


def _chunked(draw, raw: bytes) -> list[bytes]:
    cuts = sorted(draw(st.lists(st.integers(0, len(raw)), max_size=12)))
    bounds = [0, *cuts, len(raw)]
    return [raw[a:b] for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzz_complete_requests_get_one_response_each_in_order(data):
    raw, expected = data.draw(_request_stream())
    high_water = data.draw(st.one_of(st.none(), st.integers(1, 200)))
    app, protocol, transport = _connect(high_water)
    bodies: list[bytes] = []
    for chunk in _chunked(data.draw, raw):
        protocol.data_received(chunk)
        while protocol.writing_paused:
            bodies += [b for _, b in _responses(transport.written)]
            transport.drain()
    bodies += [b for _, b in _responses(transport.written)]
    assert bodies == expected
    assert not transport.closed


@settings(max_examples=300, deadline=None)
@given(
    chunks=st.lists(
        st.one_of(
            st.binary(max_size=64),
            st.sampled_from(
                [b"GET / HTTP/1.1\r\n\r\n", b"\r\n", b"\n\n", b"content-length: 3"]
            ),
        ),
        max_size=20,
    )
)
def test_fuzz_random_chunks_never_raise(chunks):
    app, protocol, transport = _connect()
    for chunk in chunks:
        protocol.data_received(chunk)
    # whatever was written is whole responses, one per handled request, and
    # at most one refusal that closed the connection
    written = bytes(transport.written)
    for refusal in (
        b"HTTP/1.1 414 URI Too Long\r\n\r\n",
        b"HTTP/1.1 400 Bad Request\r\n\r\n",
    ):
        if written.endswith(refusal):
            written = written[: -len(refusal)]
            assert transport.closed
    assert len(_responses(written)) == len(app.calls)
