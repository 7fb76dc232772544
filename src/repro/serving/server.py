"""A minimal asyncio HTTP/1.1 server for the serving app.

Stdlib-only (no new dependencies): one :class:`asyncio.Protocol` per
connection parses whole request heads out of its receive buffer — request
line and headers, CRLF or bare-LF line ends, nothing beyond draining a
``Content-Length`` body — and answers each request with one synchronous
:meth:`ServingApp.handle <repro.serving.app.ServingApp.handle>` call and
one ``transport.write``.  Pipelined requests are answered in order;
``Connection: close`` and HTTP/1.0 close after the response.  While the
transport's write buffer is over its high-water mark the protocol stops
reading and answering, as ``await drain()`` would.  ``ServingApp`` keeps
its ASGI ``__call__`` for external ASGI servers; this front end does not
go through it.
"""

from __future__ import annotations

import asyncio
from urllib.parse import unquote

_MAX_REQUEST_LINE = 16 * 1024
_MAX_HEADER_BYTES = 64 * 1024

_URI_TOO_LONG = b"HTTP/1.1 414 URI Too Long\r\n\r\n"
_BAD_REQUEST = b"HTTP/1.1 400 Bad Request\r\n\r\n"


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
}


def _head_end(buffer: bytearray, start: int) -> int:
    """End of the first empty line (``\\r\\n`` or ``\\n``) that follows a
    line end at or after ``start``, or -1 if the head is still incomplete."""
    ends = [
        found + len(blank)
        for blank in (b"\n\n", b"\n\r\n")
        if (found := buffer.find(blank, start)) >= 0
    ]
    return min(ends, default=-1)


class HttpProtocol(asyncio.Protocol):
    """One connection: buffered request heads in, ``app.handle`` answers out."""

    def __init__(self, app) -> None:
        self.app = app
        self.transport: asyncio.Transport | None = None
        self.buffer = bytearray()
        #: position of the newline ending the buffered request line, or -1
        self.line_end = -1
        #: ``(method, target, version)`` of that request line
        self.request_line: list[str] = []
        #: buffered bytes already searched for the end of the request head
        self.searched = 0
        #: ``(method, target, closes)`` of a request whose body is draining
        self.pending: tuple[str, str, bool] | None = None
        self.body_left = 0
        self.writing_paused = False
        self.closed = False

    def connection_made(self, transport) -> None:
        self.transport = transport

    def connection_lost(self, exc) -> None:
        self.closed = True
        self.buffer.clear()

    def pause_writing(self) -> None:
        self.writing_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.writing_paused = False
        self.transport.resume_reading()
        self._process()

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        self._process()

    def _close(self, response: bytes = b"") -> None:
        if response:
            self.transport.write(response)
        self.closed = True
        self.buffer.clear()
        self.transport.close()

    def _process(self) -> None:
        """Answer every complete request in the buffer, in order."""
        buffer = self.buffer
        while not self.closed and not self.writing_paused:
            if self.pending is not None:
                dropped = min(self.body_left, len(buffer))
                del buffer[:dropped]
                self.body_left -= dropped
                if self.body_left:
                    return
                request, self.pending = self.pending, None
                self._respond(*request)
                continue
            if self.line_end < 0:
                line_end = buffer.find(b"\n", self.searched)
                size = line_end + 1 if line_end >= 0 else len(buffer)
                if size > _MAX_REQUEST_LINE:
                    self._close(_URI_TOO_LONG)
                    return
                if line_end < 0:
                    self.searched = len(buffer)
                    return
                self.request_line = (
                    buffer[:line_end].decode("latin-1").strip().split(" ", 2)
                )
                if len(self.request_line) != 3:
                    self._close(_BAD_REQUEST)
                    return
                self.line_end = self.searched = line_end
            # a blank line already searched past ends within two bytes of it
            end = _head_end(buffer, max(self.line_end, self.searched - 2))
            header_bytes = (end if end >= 0 else len(buffer)) - self.line_end - 1
            if header_bytes > _MAX_HEADER_BYTES:
                self._close()
                return
            if end < 0:
                self.searched = len(buffer)
                return
            headers = buffer[self.line_end + 1 : end].decode("latin-1")
            del buffer[:end]
            self.line_end = -1
            self.searched = 0
            self._start(headers)

    def _start(self, headers: str) -> None:
        """Read one request's headers; answer it once its body is gone."""
        method, target, version = self.request_line
        closes = version == "HTTP/1.0"
        length = None
        for line in headers.split("\n"):
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "connection" and value.strip().lower() == "close":
                closes = True
            elif name == "content-length" and length is None:
                try:
                    length = int(value)
                except ValueError:
                    length = -1
                if length < 0:
                    self._close()
                    return
        self.pending = (method, target, closes)
        self.body_left = length or 0

    def _respond(self, method: str, target: str, closes: bool) -> None:
        raw_path, _, query = target.partition("?")
        status, body = self.app.handle(unquote(raw_path), query, method.upper())
        self.transport.write(
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            "content-type: application/json\r\n"
            f"content-length: {len(body)}\r\n"
            "connection: keep-alive\r\n\r\n".encode("latin-1")
            + body
        )
        if closes:
            self._close()


async def serve(app, host: str = "127.0.0.1", port: int = 8752):
    """Start serving ``app``; returns the listening ``asyncio.Server``."""
    loop = asyncio.get_running_loop()
    return await loop.create_server(lambda: HttpProtocol(app), host, port)


def run(app, host: str = "127.0.0.1", port: int = 8752) -> None:
    """Blocking entry point: serve until interrupted."""

    async def main() -> None:
        server = await serve(app, host, port)
        addresses = ", ".join(
            str(sock.getsockname()) for sock in server.sockets or ()
        )
        print(f"serving on {addresses}")
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
