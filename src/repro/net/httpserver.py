"""``repro.net.httpserver`` — the HTTP/1.1 server side of ``repro.net``.

Two layers, beside the client codec in :mod:`repro.net.aio`:

* a socket-free **codec**: :func:`parse_request` parses one request
  head (request line and headers) from the front of a byte buffer, and
  :func:`render_response` renders a status line, headers and body as
  one buffer, so each response is one ``send`` on the fast path;
* :class:`LoopHTTPServer`, one listening socket served by one
  :class:`repro.net.aio.EventLoop` on one thread: an accept task plus
  one task per connection doing non-blocking reads and writes.

Connection rules:

* HTTP/1.1 keep-alive; pipelined requests are answered in order.
  ``Connection: close`` and every HTTP/1.0 request close the
  connection after the response;
* an idle connection, or one whose reads or writes stall, closes
  after :data:`IDLE_TIMEOUT` seconds (per wait, not per exchange);
* methods other than GET and HEAD answer 501; a malformed request line or
  header answers 400; a request head over :data:`MAX_HEAD_BYTES`
  answers 431. All three close the connection;
* a request body declared by ``Content-Length`` is read and
  discarded, so keep-alive never desyncs. A ``Transfer-Encoding``
  body cannot be framed without decoding it and answers 400;
* every accepted socket carries ``TCP_NODELAY``;
* with several processes accepting on one inherited listening socket,
  each wakes on every connection, so an ``accept`` that raises
  ``BlockingIOError`` is the normal outcome for the losers.

The application runs on the loop thread: its computation delays every
connection of this server, its waits do not. The query API and the
Looking Glass share one app contract. ``app()`` is a connection's scope,
a context manager entered on accept and exited on close, that yields
``respond``. ``respond(request, answer)`` is a loop coroutine per
request: it may wait on the loop, then answers once with ``yield from
answer(status, headers, body)`` (``close=True`` closes the connection
after it). ``answer`` returns once the last byte has been handed to the
kernel, which is how a caller counts a slow reader as a request in
flight. A ``respond`` that raises, or returns, before it answers prints
a traceback to stderr and answers 500, and the connection closes.

:meth:`LoopHTTPServer.stop` drains: it stops accepting, closes idle
connections, lets requests being answered (waits included) finish
within :data:`DRAIN_TIMEOUT` seconds, then closes the listening
socket.
"""

from __future__ import annotations

import contextlib
import email.utils
import errno
import functools
import json
import re
import selectors
import socket
import sys
import threading
import time
import traceback
from http import HTTPStatus
from typing import (Any, Callable, ContextManager, Dict, Generator,
                    Iterable, Optional, Tuple)

from . import aio

__all__ = ["Request", "BadRequest", "parse_request", "render_response",
           "http_date", "LoopHTTPServer", "Answer", "Respond",
           "MAX_HEAD_BYTES"]

#: largest request head (request line + headers + blank line) accepted.
MAX_HEAD_BYTES = aio.MAX_HEAD_BYTES
#: seconds an idle or stalled connection is kept open.
IDLE_TIMEOUT = 10.0
#: seconds ``stop()`` lets responses being written finish.
DRAIN_TIMEOUT = 5.0
#: methods served; any other answers 501.
METHODS = frozenset({"GET", "HEAD"})
#: after an error answer, discard at most this many request bytes
#: (waiting at most ``LINGER_SECONDS`` for each read) before closing.
LINGER_BYTES = 1 << 20
LINGER_SECONDS = 1.0
#: ``Server`` header of every response.
SERVER_NAME = "repro-aio/1.0"

_REQUEST_LINE = re.compile(
    rb"([!#$%&'*+\-.^_`|~0-9A-Za-z]+) (\S+) HTTP/1\.([01])")
_TOKEN = re.compile(rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")
_REASONS = {status.value: status.phrase for status in HTTPStatus}


# -- codec -------------------------------------------------------------------

class BadRequest(ValueError):
    """A request the server refuses to frame; answered with ``status``
    and the connection closed."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class Request:
    """One parsed request head."""

    __slots__ = ("method", "target", "headers", "keep_alive",
                 "body_length")

    def __init__(self, method: str, target: str,
                 headers: Dict[str, str], keep_alive: bool,
                 body_length: int) -> None:
        self.method = method
        self.target = target
        #: lower-cased names; repeated fields joined with ", ".
        self.headers = headers
        #: the connection may carry another request after this one.
        self.keep_alive = keep_alive
        #: ``Content-Length`` bytes that follow the head.
        self.body_length = body_length


def parse_request(buffer: bytes) -> Optional[Tuple[Request, int]]:
    """Parse the request head at the front of ``buffer``.

    Returns ``(request, consumed)`` where ``consumed`` counts the head's
    bytes (empty lines before the request line included), or None while
    the head is incomplete. Raises :class:`BadRequest` (400 or 431).
    Lines end in CRLF.
    """
    start = 0
    while buffer.startswith(b"\r\n", start):
        start += 2
    end = buffer.find(b"\r\n\r\n", start)
    if end < 0:
        if len(buffer) - start > MAX_HEAD_BYTES:
            raise BadRequest(431, "request head too large")
        return None
    if end + 4 - start > MAX_HEAD_BYTES:
        raise BadRequest(431, "request head too large")
    lines = bytes(buffer[start:end]).split(b"\r\n")
    match = _REQUEST_LINE.fullmatch(lines[0])
    if match is None:
        raise BadRequest(400, "malformed request line")
    method, target, minor = match.groups()
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(b":")
        if not sep or _TOKEN.fullmatch(name) is None or b"\n" in value:
            raise BadRequest(400, "malformed header line")
        key = name.decode("latin-1").lower()
        text = value.strip(b" \t").decode("latin-1")
        headers[key] = f"{headers[key]}, {text}" if key in headers \
            else text
    if "transfer-encoding" in headers:
        raise BadRequest(400, "request bodies must be Content-Length "
                              "delimited")
    body_length = 0
    if "content-length" in headers:
        declared = headers["content-length"]
        if not declared.isdigit():
            raise BadRequest(400, "malformed Content-Length")
        body_length = int(declared)
    tokens = {token.strip().lower()
              for token in headers.get("connection", "").split(",")}
    keep_alive = minor == b"1" and "close" not in tokens
    return (Request(method.decode("latin-1"), target.decode("latin-1"),
                    headers, keep_alive, body_length),
            end + 4)


_date_cache: Tuple[int, str] = (0, "")


def http_date() -> str:
    """The current ``Date`` header value, formatted once per second."""
    global _date_cache
    second = int(time.time())
    if _date_cache[0] != second:
        _date_cache = (second, email.utils.formatdate(second, usegmt=True))
    return _date_cache[1]


def render_response(status: int, headers: Iterable[Tuple[str, str]],
                    body: bytes, *, send_body: bool = True,
                    close: bool = False) -> bytes:
    """One response as one buffer: status line, ``Server``, ``Date``,
    ``headers`` in order, ``Content-Length`` (of ``body`` also when
    ``send_body`` is False, as HEAD answers), ``Connection: close``
    when ``close``, then the body."""
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
             f"Server: {SERVER_NAME}", f"Date: {http_date()}"]
    lines.extend(f"{name}: {value}" for name, value in headers)
    lines.append(f"Content-Length: {len(body)}")
    if close:
        lines.append("Connection: close")
    lines.extend(("", ""))
    head = "\r\n".join(lines).encode("latin-1")
    return head + body if send_body and body else head


def _report_error(request: Optional[Request]) -> None:
    """Print the traceback of the exception being handled, as the
    stdlib servers do for a failing handler."""
    where = f" {request.method} {request.target!r}" \
        if request is not None else " a connection"
    print(f"repro.net.httpserver: error serving{where}",
          file=sys.stderr, flush=True)
    traceback.print_exc()


def _error_response(status: int, message: str) -> bytes:
    body = json.dumps({"error": message, "status": status}).encode()
    return render_response(status, [("Content-Type", "application/json")],
                           body, close=True)


# -- the serving loop --------------------------------------------------------

#: ``answer(status, headers, body, close=False)``, a loop coroutine.
Answer = Callable[..., Generator[Any, Any, None]]
#: ``respond(request, answer)``, a loop coroutine.
Respond = Callable[[Request, Answer], Generator[Any, Any, None]]


class _Connection:
    __slots__ = ("sock", "task", "writing", "answered", "close")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.task: Optional[aio.Task] = None
        #: True from a parsed request head until its response has been
        #: written (drain waits for it).
        self.writing = False
        self.answered = False
        self.close = False  # after the current response


class LoopHTTPServer:
    """Serve ``app`` on an already-listening socket from one event
    loop on one thread (see the module docstring for the rules)."""

    def __init__(self, sock: socket.socket,
                 app: Callable[[], ContextManager[Respond]]) -> None:
        self.sock = sock
        self.app = app
        self.loop = aio.EventLoop()
        self._connections: Dict[socket.socket, _Connection] = {}
        self._stopping = False
        self._thread: Optional[threading.Thread] = None
        self._acceptor: Optional[aio.Task] = None
        self._waker_r, self._waker_w = socket.socketpair()
        self._waker_r.setblocking(False)

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Serve on a background thread."""
        self.sock.setblocking(False)
        self._acceptor = self.loop.spawn(self._accept(), name="accept")
        self.loop.spawn(self._wait_for_stop(), name="waker")
        self._thread = threading.Thread(target=self._run, name="http-loop",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop accepting and drain (bounded); returns once the loop
        thread has closed the listening socket."""
        if self._thread is None:
            return
        self._stopping = True
        with contextlib.suppress(OSError):
            self._waker_w.send(b"x")
        self._thread.join(DRAIN_TIMEOUT + 5.0)
        self._thread = None

    def _run(self) -> None:
        loop = self.loop
        try:
            while not self._stopping:
                loop.run_once(max_wait=1.0)
            self._drain()
        finally:
            loop.close()
            for conn in list(self._connections.values()):
                conn.sock.close()
            self._connections.clear()
            self.sock.close()
            self._waker_r.close()
            self._waker_w.close()

    def _drain(self) -> None:
        """Stop accepting, close idle connections now, and let requests
        being answered finish within the bound."""
        if self._acceptor is not None:
            self._acceptor.cancel()
        for conn in list(self._connections.values()):
            if not conn.writing and conn.task is not None:
                conn.task.cancel()
        deadline = time.monotonic() + DRAIN_TIMEOUT
        while self._connections and time.monotonic() < deadline:
            self.loop.run_once(max_wait=0.05)

    def _wait_for_stop(self) -> Generator[Any, Any, None]:
        yield from aio.wait_io(self._waker_r, selectors.EVENT_READ, None)

    # -- accepting ----------------------------------------------------------

    def _accept(self) -> Generator[Any, Any, None]:
        listener = self.sock
        while True:
            try:
                sock, _address = listener.accept()
            except (BlockingIOError, InterruptedError):
                # also the usual outcome with an inherited listening
                # socket: another worker took the connection.
                yield from aio.wait_io(listener, selectors.EVENT_READ,
                                       None)
                continue
            except OSError as error:
                if error.errno == errno.ECONNABORTED:
                    continue
                # out of descriptors or buffers: let connections close.
                yield from aio.sleep(0.05)
                continue
            try:
                self._adopt(sock)
            except OSError:
                # e.g. EINVAL from setsockopt when the peer has already
                # reset: only this connection is lost.
                sock.close()
                continue
            conn = _Connection(sock)
            self._connections[sock] = conn
            conn.task = self.loop.spawn(self._serve(conn), name="conn")

    @staticmethod
    def _adopt(sock: socket.socket) -> None:
        """Options of an accepted socket: non-blocking, and no Nagle
        (with it, back-to-back keep-alive answers stall on the client's
        delayed ACK)."""
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    # -- one connection -------------------------------------------------

    def _refuse(self, sock: socket.socket, status: int,
                message: str) -> Generator[Any, Any, None]:
        """Answer an error and close gracefully: stop writing, then
        discard what the client is still sending (bounded), so the
        close does not reset the connection under the answer."""
        yield from aio.send_all(sock, _error_response(status, message),
                                IDLE_TIMEOUT)
        sock.shutdown(socket.SHUT_WR)
        drained = 0
        while drained < LINGER_BYTES:
            chunk = yield from aio.recv_some(sock, LINGER_SECONDS)
            if not chunk:
                return
            drained += len(chunk)

    def _answer(self, conn: _Connection, request: Request, status: int,
                headers: Iterable[Tuple[str, str]], body: bytes,
                close: bool = False) -> Generator[Any, Any, None]:
        """``answer`` for one request (see the module docstring)."""
        conn.close = close or not request.keep_alive or self._stopping
        response = render_response(status, headers, body,
                                   send_body=request.method != "HEAD",
                                   close=conn.close)
        conn.answered = True
        yield from aio.send_all(conn.sock, response, IDLE_TIMEOUT)

    def _serve(self, conn: _Connection) -> Generator[Any, Any, None]:
        sock = conn.sock
        buffer = bytearray()
        try:
            with self.app() as respond:
                while True:
                    try:
                        parsed = parse_request(buffer)
                    except BadRequest as bad:
                        yield from self._refuse(sock, bad.status, str(bad))
                        return
                    if parsed is None:
                        chunk = yield from aio.recv_some(sock, IDLE_TIMEOUT)
                        if not chunk:
                            return  # EOF, possibly mid-head: nothing to answer
                        buffer += chunk
                        continue
                    request, consumed = parsed
                    del buffer[:consumed]
                    if request.method not in METHODS:
                        yield from self._refuse(
                            sock, 501, f"unsupported method {request.method}")
                        return
                    # read and discard a declared body
                    remaining = request.body_length
                    while remaining:
                        if not buffer:
                            chunk = yield from aio.recv_some(sock,
                                                             IDLE_TIMEOUT)
                            if not chunk:
                                return
                            buffer += chunk
                        taken = min(remaining, len(buffer))
                        del buffer[:taken]
                        remaining -= taken
                    conn.writing = True
                    conn.answered = False
                    try:
                        yield from respond(request, functools.partial(
                            self._answer, conn, request))
                        if not conn.answered:
                            raise RuntimeError("request left unanswered")
                    except Exception:  # noqa: BLE001 — the app's failure
                        if conn.answered:
                            raise  # mid-send: a second answer would desync
                        _report_error(request)
                        yield from self._refuse(sock, 500,
                                                "internal server error")
                        return
                    conn.writing = False
                    if conn.close or self._stopping:
                        return
        except (OSError, aio.TaskCancelled):
            pass  # reset, timeout, or a drain closing an idle connection
        except Exception:  # noqa: BLE001 — a fault after answering
            _report_error(None)
        finally:
            self._connections.pop(sock, None)
            sock.close()
