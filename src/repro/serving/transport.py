"""One HTTP/1.1 transport for the replica API and the cluster router.

Both ``repager serve`` (:mod:`repro.serving.http_api`) and ``repager route``
(:mod:`repro.cluster.router`) speak JSON over keep-alive HTTP/1.1 built on
:mod:`http.server`.  This module holds the parts they share:

* :class:`JSONHandler` — request dispatch, the bounded ``X-Request-Id`` echo,
  body-size checks, the taxonomy error responses of :mod:`repro.errors` and
  the senders.  Responses leave in one write on a ``TCP_NODELAY`` socket, and
  every response after which the server closes the connection says
  ``Connection: close``.  The errors :mod:`http.server` raises itself (an
  unknown method, a malformed request) answer with taxonomy bodies too, and
  an idle keep-alive connection is closed after :attr:`JSONHandler.timeout`.
* :class:`JSONServer` — the threading server; closing it also shuts down the
  keep-alive connections it accepted.
* :class:`UpstreamPool` — the client side: keep-alive connections to one
  upstream server, which the router keeps per replica.
"""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping
from urllib.parse import urlsplit

from ..errors import (
    ReproError,
    RequestTooLargeError,
    RequestValidationError,
    error_payload,
)
from ..obs.trace import new_id

__all__ = ["JSONHandler", "JSONServer", "UpstreamPool"]


class JSONServer(ThreadingHTTPServer):
    """Threading HTTP server that owns the connections it accepted.

    :meth:`server_close` shuts down every connection still open: otherwise
    the daemon handler threads would keep answering on keep-alive sockets
    after the listening socket is gone.
    """

    daemon_threads = True
    # The stdlib default backlog of 5 resets connections under a burst that
    # the admission layer is designed to answer with orderly 429s; give the
    # kernel room to hold a flood long enough to reject it properly.
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        handler_class: type["JSONHandler"],
        quiet: bool = True,
    ) -> None:
        self.quiet = quiet
        # Set before binding: a failed bind calls server_close().
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, handler_class)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def get_request(self) -> tuple[socket.socket, Any]:
        connection, address = super().get_request()
        with self._connections_lock:
            self._connections.add(connection)
        return connection, address

    def shutdown_request(self, request: Any) -> None:
        # Closed under the lock, so server_close never shuts down a socket
        # whose descriptor another connection has already reused.
        with self._connections_lock:
            self._connections.discard(request)
            super().shutdown_request(request)

    def handle_error(self, request: Any, client_address: Any) -> None:
        # A peer that resets or drops its connection mid-exchange is routine
        # for a server; anything else keeps the stdlib's traceback report.
        if isinstance(sys.exc_info()[1], ConnectionError):
            return
        super().handle_error(request, client_address)

    def server_close(self) -> None:
        super().server_close()
        with self._connections_lock:
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the peer reset it first


class JSONHandler(BaseHTTPRequestHandler):
    """Dispatch and responses shared by the replica and the router.

    Subclasses implement :meth:`_route`; an exception it raises becomes the
    taxonomy error body of :mod:`repro.errors`.
    """

    server: JSONServer  # narrowed type
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted socket: a response never waits for the
    # peer's delayed ACK of an earlier segment.
    disable_nagle_algorithm = True
    # Idle timeout (seconds) of an accepted socket.  A keep-alive connection
    # that sends nothing for this long is closed and frees its handler
    # thread; the router's upstream pool retries such a closed socket once.
    timeout = 60.0

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        # Honour a caller-supplied correlation id (bounded so a hostile
        # header cannot bloat traces/logs); mint one otherwise.  Every
        # response carries it back via ``X-Request-Id``.
        incoming = (self.headers.get("X-Request-Id") or "").strip()
        self.request_id = incoming[:128] or new_id()
        path = self.path.partition("?")[0]
        segments = [part for part in path.split("/") if part]
        try:
            self._route(method, segments)
        except Exception as exc:  # noqa: BLE001 - client must always get a response
            self._send_error(exc)

    def _route(self, method: str, segments: list[str]) -> None:
        raise NotImplementedError

    def _not_found(self, method: str) -> None:
        if method != "GET":
            # The request may carry an unread body; drop the connection so
            # keep-alive never parses it as the next request.
            self.close_connection = True
        self._send_json(
            404,
            {
                "error": "not_found",
                "code": "not_found",
                "http_status": 404,
                "detail": f"no such route: {method} {self.path}",
                "path": self.path,
            },
        )

    def _read_body(self, limit: int) -> bytes:
        """The request body (``b""`` when there is none), at most ``limit`` bytes.

        A rejection leaves the body unread, so it also closes the connection:
        keep-alive would parse the unread bytes as the next request.
        """
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self.close_connection = True
            raise RequestValidationError(
                "Content-Length header must be an integer"
            ) from None
        if length > limit:
            self.close_connection = True
            raise RequestTooLargeError(length, limit)
        return self.rfile.read(length) if length > 0 else b""

    def send_error(
        self, code: int, message: str | None = None, explain: str | None = None
    ) -> None:
        """Answer an error :mod:`http.server` raised itself as a taxonomy body.

        That is 501 for a method without a handler and 400, 414, 431 or 505
        from request parsing.  No route ran, so the request id is minted
        here.  The connection closes, and a HEAD request gets no body.
        """
        status = HTTPStatus(code)
        code_name = status.phrase.lower().replace("-", "_").replace(" ", "_")
        payload = {
            "error": code_name,
            "code": code_name,
            "http_status": code,
            "detail": explain or message or status.description,
        }
        self.request_id = new_id()
        self.close_connection = True
        body = b"" if self.command == "HEAD" else json.dumps(payload).encode("utf-8")
        self._send_bytes(code, body, "application/json")

    def _retry_after(self) -> str:
        """``Retry-After`` for a 429 or 5xx whose error names no retry time."""
        return "1"

    def _send_error(self, exc: BaseException) -> None:
        payload = error_payload(exc)
        status = payload["http_status"]
        retry_after = None
        if isinstance(exc, ReproError):
            payload.update(exc.http_extras())
            retry_after = exc.retry_after()
        if retry_after is None and (status == 429 or status >= 500):
            # Backpressure and every 5xx (solve failure, timeout, hung
            # worker, unreachable replica) are transient from the client's
            # point of view: always tell it when to retry.
            retry_after = self._retry_after()
        headers = {"Retry-After": retry_after} if retry_after is not None else None
        self._send_json(status, payload, headers)

    def _send_json(
        self,
        status: int,
        payload: dict[str, Any],
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send_bytes(status, body, "application/json", extra_headers)

    def _send_text(self, status: int, text: str) -> None:
        self._send_bytes(status, text.encode("utf-8"), "text/plain; charset=utf-8")

    def _send_bytes(
        self,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: Mapping[str, str] | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id", self.request_id)
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        if self.request_version == "HTTP/0.9":  # no status line, no headers
            self.wfile.write(body)
            return
        # Status line, headers and body in one write: one segment for a
        # small response instead of a head segment and a body segment.
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)


#: How a reused keep-alive socket fails when the upstream closed it while it
#: sat idle (a restart): before any status line arrives.
_STALE_SOCKET_ERRORS = (
    http.client.RemoteDisconnected,
    ConnectionResetError,
    BrokenPipeError,
)


class UpstreamPool:
    """Keep-alive connections to one upstream server, reused last in, first out.

    A connection goes back to the pool after a complete response, unless the
    response closes it.  Each connection is checked out by one request at a
    time, so the idle count never exceeds the peak number of concurrent
    requests.  A reused socket that fails before a status line arrives is
    retried once on a fresh connection.  The callers' requests are reads or
    idempotent attach/detach/snapshot calls, so the retry is safe.
    """

    def __init__(self, url: str) -> None:
        parts = urlsplit(url)
        self.host, self.port = parts.hostname, parts.port
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()
        self._closed = False

    def request(
        self,
        method: str,
        path: str,
        *,
        body: bytes | None = None,
        headers: Mapping[str, str] | None = None,
        timeout: float,
    ) -> tuple[int, bytes, dict[str, str]]:
        """One exchange: ``(status, body, headers)`` for every status.

        Raises:
            OSError: The upstream could not be reached, or the exchange broke.
        """
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        reused = connection is not None
        if connection is None:
            connection = http.client.HTTPConnection(self.host, self.port)
        try:
            try:
                response = _exchange(connection, method, path, body, headers, timeout)
            except _STALE_SOCKET_ERRORS:
                if not reused:
                    raise
                connection.close()
                connection = http.client.HTTPConnection(self.host, self.port)
                response = _exchange(connection, method, path, body, headers, timeout)
            payload = response.read()
        except BaseException:
            connection.close()
            raise
        if response.will_close:
            connection.close()
        else:
            self._release(connection)
        return response.status, payload, dict(response.headers.items())

    def _release(self, connection: http.client.HTTPConnection) -> None:
        with self._lock:
            if not self._closed:
                self._idle.append(connection)
                return
        connection.close()

    def clear(self) -> None:
        """Close every idle connection (the upstream went down)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def close(self) -> None:
        """Close every idle connection and pool none from now on."""
        with self._lock:
            self._closed = True
        self.clear()


def _exchange(
    connection: http.client.HTTPConnection,
    method: str,
    path: str,
    body: bytes | None,
    headers: Mapping[str, str] | None,
    timeout: float,
) -> http.client.HTTPResponse:
    """Send one request and read the status line and headers of its response."""
    connection.timeout = timeout  # used when the connection (re)connects
    if connection.sock is not None:
        connection.sock.settimeout(timeout)
    connection.request(method, path, body=body, headers=headers or {})
    return connection.getresponse()
