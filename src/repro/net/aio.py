"""``repro.net.aio`` — a stdlib-only event-driven I/O layer.

The collection path is dominated by waiting on Looking Glass HTTP
round-trips. With one thread per waiting request, a process tops out
at tens of in-flight requests. This module provides the substrate for
pushing per-process concurrency past that: a
:class:`selectors.DefaultSelector` event loop driving
generator-based coroutines over non-blocking sockets, with

* a :class:`TimerWheel` ordering timeouts and backoff sleeps,
* a minimal HTTP/1.1 **client** codec (status line, headers,
  ``Content-Length`` and ``chunked`` bodies), and
* a per-host keep-alive :class:`ConnectionPool` with a **hard
  connection cap** — the paper's "single connection to the LG server,
  to avoid overloading it" discipline promoted to a first-class limit
  instead of an accident of pool size.

No ``asyncio``: coroutines are plain generators that ``yield``
instruction objects (sleep, wait-for-I/O, park) and compose with
``yield from``. That keeps the loop ~300 lines, trivially inspectable,
and — crucially — lets a *synchronous* coordinator drive it one turn
at a time (:meth:`EventLoop.run_once`), so the campaign folds
completed peers and writes checkpoints between turns.

The same loop serves the query API's sockets:
:mod:`repro.net.httpserver` adds the server-side codec and an
accept/read/write loop on top of :func:`wait_io`, :func:`send_all`
and :func:`recv_some`, the same socket helpers the client codec uses.

This module is observability-free by design: the loop and pool expose
plain observer hooks (``on_turn``, ``on_open``/``on_reuse``/
``on_close``) and :mod:`repro.lg.client` wires them into ``repro_lg_aio_*``
metrics.
"""

from __future__ import annotations

import errno
import itertools
import heapq
import selectors
import socket
import time
import urllib.parse
from collections import deque
from typing import (Any, Callable, Deque, Dict, Generator, List, Optional,
                    Tuple)

__all__ = [
    "EventLoop", "Task", "TimerWheel", "Semaphore", "ConnectionPool",
    "HTTPResponse", "http_request", "sleep", "wait_io", "send_all",
    "recv_some", "join",
    "IOTimeout", "ConnectionClosed", "ProtocolError", "TaskCancelled",
]

#: bytes of response head (status line + headers) we will buffer before
#: declaring the peer broken.
MAX_HEAD_BYTES = 65536
#: per-recv read size.
RECV_CHUNK = 65536


class IOTimeout(OSError):
    """An I/O wait exceeded its timeout (mirrors ``socket.timeout``)."""


class ConnectionClosed(OSError):
    """The peer closed (or reset) the connection mid-exchange."""


class ProtocolError(ValueError):
    """The peer sent bytes that do not parse as HTTP/1.1."""


class TaskCancelled(BaseException):
    """Thrown into a task by :meth:`Task.cancel`.

    A ``BaseException`` (like :class:`asyncio.CancelledError`) so that
    coroutine code catching ``Exception`` cannot accidentally swallow a
    cancellation.
    """


# -- coroutine instructions -----------------------------------------------
#
# A coroutine is a generator yielding these. ``yield from`` composes
# sub-coroutines; the loop only ever sees the innermost instruction.

class _Sleep:
    __slots__ = ("seconds",)

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds


class _WaitIO:
    __slots__ = ("sock", "events", "timeout")

    def __init__(self, sock: socket.socket, events: int,
                 timeout: Optional[float]) -> None:
        self.sock = sock
        self.events = events
        self.timeout = timeout


class _Park:
    """Suspend until somebody wakes the task (e.g. a pool waiter list).

    ``register`` receives the parked :class:`Task`; the owner wakes it
    later via ``task.loop.wake(task)``. Waiters that are already done
    when woken are skipped by the waker, so stale registrations are
    harmless.
    """

    __slots__ = ("register",)

    def __init__(self, register: Callable[["Task"], None]) -> None:
        self.register = register


def sleep(seconds: float) -> Generator[Any, Any, None]:
    """Coroutine: suspend for ``seconds`` (a loop timer, or the loop's
    injected ``sleep``)."""
    if seconds > 0:
        yield _Sleep(seconds)


def wait_io(sock: socket.socket, events: int,
            timeout: Optional[float]) -> Generator[Any, Any, None]:
    """Coroutine: suspend until ``sock`` is ready (or :class:`IOTimeout`)."""
    yield _WaitIO(sock, events, timeout)


def send_all(sock: socket.socket, data: bytes,
             timeout: Optional[float]) -> Generator[Any, Any, None]:
    """Coroutine: hand all of ``data`` to the kernel, waiting (at most
    ``timeout`` per wait) whenever the send buffer is full."""
    view = memoryview(data)
    while view:
        try:
            sent = sock.send(view)
        except (BlockingIOError, InterruptedError):
            sent = 0
        view = view[sent:]
        if view:
            yield _WaitIO(sock, selectors.EVENT_WRITE, timeout)


def recv_some(sock: socket.socket,
              timeout: Optional[float]) -> Generator[Any, Any, bytes]:
    """Coroutine: one ``recv`` of up to :data:`RECV_CHUNK` bytes; b"" on
    orderly EOF. Tries before waiting: data often arrives first."""
    while True:
        try:
            return sock.recv(RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            yield _WaitIO(sock, selectors.EVENT_READ, timeout)


def join(task: "Task") -> Generator[Any, Any, "Task"]:
    """Coroutine: suspend until ``task`` finishes; returns it (inspect
    ``.result`` / ``.error`` — joining never re-raises by itself)."""
    if not task.done:
        def register(waiter: "Task") -> None:
            task.add_done_callback(lambda _t: waiter.loop.wake(waiter))
        yield _Park(register)
    return task


# -- timers ----------------------------------------------------------------

class _Timer:
    __slots__ = ("deadline", "seq", "callback", "cancelled")

    def __init__(self, deadline: float, seq: int,
                 callback: Callable[[], None]) -> None:
        self.deadline = deadline
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __lt__(self, other: "_Timer") -> bool:
        return (self.deadline, self.seq) < (other.deadline, other.seq)


class TimerWheel:
    """Deadline-ordered timers for the loop (timeouts, backoff sleeps).

    Heap-ordered rather than a hashed wheel: O(log n) insert is
    indistinguishable from O(1) below the ~10^3 live timers a
    collection loop carries, and the heap keeps exact deadlines (a
    spoked wheel quantises them). Cancellation is a tombstone flag;
    dead entries are dropped lazily when they surface.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self._heap: List[_Timer] = []
        self._seq = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def schedule(self, delay: float,
                 callback: Callable[[], None]) -> _Timer:
        timer = _Timer(self.clock() + max(0.0, delay), next(self._seq),
                       callback)
        heapq.heappush(self._heap, timer)
        self._live += 1
        return timer

    def _prune(self) -> None:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)

    def next_deadline(self) -> Optional[float]:
        self._prune()
        return self._heap[0].deadline if self._heap else None

    def fire_due(self, now: Optional[float] = None) -> int:
        """Run every timer whose deadline has passed; returns count."""
        now = self.clock() if now is None else now
        fired = 0
        while self._heap:
            self._prune()
            if not self._heap or self._heap[0].deadline > now:
                break
            timer = heapq.heappop(self._heap)
            # mark fired so a later discard() (the wake path's cleanup
            # runs after we fired the wake) cannot double-decrement
            timer.cancelled = True
            self._live -= 1
            fired += 1
            timer.callback()
        return fired

    def discard(self, timer: _Timer) -> None:
        """Cancel and account (used by the loop's cleanups)."""
        if not timer.cancelled:
            timer.cancel()
            self._live -= 1


# -- tasks and the loop ----------------------------------------------------

class Task:
    """One spawned coroutine. ``done``/``result``/``error`` mirror
    ``concurrent.futures.Future`` just enough for the campaign
    coordinator to treat loop tasks like pool futures."""

    __slots__ = ("loop", "gen", "name", "done", "result", "error",
                 "_callbacks", "_cleanup", "_cancelled")

    def __init__(self, loop: "EventLoop", gen: Generator,
                 name: str = "") -> None:
        self.loop = loop
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "task")
        self.done = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._callbacks: List[Callable[["Task"], None]] = []
        #: undo for the instruction currently parking this task
        #: (unregister a socket, cancel a timer); consumed by wake().
        self._cleanup: Optional[Callable[[], None]] = None
        self._cancelled = False

    def add_done_callback(self, fn: Callable[["Task"], None]) -> None:
        if self.done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def cancel(self) -> None:
        """Throw :class:`TaskCancelled` into the coroutine (no-op once
        done). ``finally`` blocks run, so held resources are released."""
        if self.done or self._cancelled:
            return
        self._cancelled = True
        self.loop.wake(self, exc=TaskCancelled())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "pending"
        return f"<Task {self.name} {state}>"


class EventLoop:
    """A single-threaded selectors loop.

    Not thread-safe: exactly one thread drives it at a time (the
    thread running the campaign). ``on_turn`` is called
    with the duration of every :meth:`run_once` turn.

    ``sleep`` is the seam for virtual time. Unset, a task's
    :func:`sleep` is a loop timer and other tasks run meanwhile. Set,
    the loop calls ``sleep(seconds)`` with the exact delay in the
    driving thread and resumes the task at once, so a fake clock sees
    every backoff and cooldown. I/O timeouts stay real-time timers
    either way.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic,
                 on_turn: Optional[Callable[[float], None]] = None,
                 sleep: Optional[Callable[[float], None]] = None) -> None:
        self.clock = clock
        self.on_turn = on_turn
        self.sleep = sleep
        self.selector = selectors.DefaultSelector()
        self.timers = TimerWheel(clock)
        #: tasks ready to step: (task, value, exc)
        self._ready: Deque[Tuple[Task, Any, Optional[BaseException]]] = \
            deque()
        #: spawned, unfinished tasks (a dict keeps spawn order).
        self._tasks: Dict[Task, None] = {}

    # -- spawning and waking ------------------------------------------

    def spawn(self, gen: Generator, name: str = "") -> Task:
        task = Task(self, gen, name)
        self._tasks[task] = None
        self._ready.append((task, None, None))
        return task

    def wake(self, task: Task, value: Any = None,
             exc: Optional[BaseException] = None) -> None:
        """Make a suspended task runnable (idempotent on done tasks)."""
        if task.done:
            return
        cleanup, task._cleanup = task._cleanup, None
        if cleanup is not None:
            cleanup()
        self._ready.append((task, value, exc))

    # -- stepping ------------------------------------------------------

    def _finish(self, task: Task, result: Any,
                error: Optional[BaseException]) -> None:
        task.done = True
        task.result = result
        task.error = error
        task.gen.close()
        del self._tasks[task]
        callbacks, task._callbacks = task._callbacks, []
        for fn in callbacks:
            fn(task)

    def _step(self, task: Task, value: Any,
              exc: Optional[BaseException]) -> None:
        if task.done:
            return
        if task._cancelled and exc is None:
            exc = TaskCancelled()
        try:
            if exc is not None:
                instruction = task.gen.throw(exc)
            else:
                instruction = task.gen.send(value)
        except StopIteration as stop:
            self._finish(task, stop.value, None)
        except TaskCancelled as cancel:
            self._finish(task, None, cancel)
        except Exception as error:
            self._finish(task, None, error)
        else:
            self._dispatch(task, instruction)

    def _dispatch(self, task: Task, instruction: Any) -> None:
        if isinstance(instruction, _Sleep):
            if self.sleep is not None:
                self.sleep(instruction.seconds)
                self.wake(task)
                return
            timer = self.timers.schedule(
                instruction.seconds, lambda: self.wake(task))
            task._cleanup = lambda: self.timers.discard(timer)
        elif isinstance(instruction, _WaitIO):
            self._dispatch_wait_io(task, instruction)
        elif isinstance(instruction, _Park):
            instruction.register(task)
        else:
            self.wake(task, exc=RuntimeError(
                f"task {task.name} yielded a non-instruction: "
                f"{instruction!r}"))

    def _dispatch_wait_io(self, task: Task, instr: _WaitIO) -> None:
        sock = instr.sock
        timer: Optional[_Timer] = None
        if instr.timeout is not None:
            timer = self.timers.schedule(
                instr.timeout,
                lambda: self.wake(task, exc=IOTimeout(
                    f"I/O wait exceeded {instr.timeout}s")))
        try:
            self.selector.register(sock, instr.events, task)
        except (KeyError, ValueError, OSError) as error:
            if timer is not None:
                self.timers.discard(timer)
            self.wake(task, exc=ConnectionClosed(
                f"cannot wait on socket: {error}"))
            return

        def cleanup() -> None:
            try:
                self.selector.unregister(sock)
            except (KeyError, ValueError):
                pass
            if timer is not None:
                self.timers.discard(timer)

        task._cleanup = cleanup

    # -- driving -------------------------------------------------------

    def _drain_ready(self) -> bool:
        progressed = bool(self._ready)
        while self._ready:
            task, value, exc = self._ready.popleft()
            self._step(task, value, exc)
        return progressed

    @property
    def idle(self) -> bool:
        """True when nothing can ever make progress again without an
        external wake — runnable, waiting-on-I/O and timer queues all
        empty (parked tasks may still exist, but only a runnable task
        could wake them)."""
        return (not self._ready and not self.selector.get_map()
                and not len(self.timers))

    @property
    def live_tasks(self) -> int:
        return len(self._tasks)

    def run_once(self, max_wait: float = 0.05) -> bool:
        """One loop turn: step runnable tasks, poll I/O (bounded by
        ``max_wait`` so a synchronous caller regains control), fire due
        timers, step again. Returns True if any task was stepped."""
        turn_started = self.clock()
        progressed = self._drain_ready()
        timeout = max(0.0, float(max_wait))
        deadline = self.timers.next_deadline()
        if deadline is not None:
            timeout = min(timeout, max(0.0, deadline - self.clock()))
        if self._ready:
            timeout = 0.0
        if self.selector.get_map():
            for key, _events in self.selector.select(timeout):
                self.wake(key.data)
        elif timeout > 0 and not self._ready and len(self.timers):
            # Nothing waits on I/O but a timer is pending: sleep until
            # it is due. With no timers either, return immediately —
            # a task that completed during the first drain (its reply
            # raced ahead of the recv) must not cost a full max_wait.
            time.sleep(timeout)
        self.timers.fire_due(self.clock())
        progressed = self._drain_ready() or progressed
        if self.on_turn is not None:
            self.on_turn(self.clock() - turn_started)
        return progressed

    def run_until_complete(self, task: Task,
                           max_wait: float = 0.05) -> Any:
        """Drive the loop until ``task`` finishes; returns its result
        or raises its error. Raises ``RuntimeError`` on a stalled loop
        (every remaining task parked with no possible waker)."""
        while not task.done:
            if self.idle:
                raise RuntimeError(
                    f"event loop stalled with task {task.name} pending "
                    f"({len(self._tasks)} live tasks, all parked)")
            self.run_once(max_wait)
        if task.error is not None:
            raise task.error
        return task.result

    def close(self) -> None:
        """Cancel every live task, then release the selector. The
        cancelled tasks' ``finally`` blocks run here, so a connection a
        task had checked out is discarded now rather than left to the
        garbage collector (an exception escaping mid-run leaves tasks
        in flight)."""
        for task in list(self._tasks):
            task.cancel()
        self._drain_ready()
        self.selector.close()


# -- synchronisation -------------------------------------------------------

class Semaphore:
    """A counting semaphore for loop tasks (single-threaded: no locks).

    ``release`` wakes one parked waiter, which re-checks the count —
    wake-ups are advisory, never a slot transfer, so a waiter cancelled
    between wake and step cannot strand the slot.
    """

    def __init__(self, value: int) -> None:
        if value < 1:
            raise ValueError("semaphore needs a positive initial value")
        self._value = value
        self._waiters: Deque[Task] = deque()

    @property
    def available(self) -> int:
        return self._value

    def acquire(self) -> Generator[Any, Any, None]:
        while True:
            if self._value > 0:
                self._value -= 1
                return
            try:
                yield _Park(self._waiters.append)
            except BaseException:
                # a wake meant for us may be in flight — pass it on.
                self._kick()
                raise

    def release(self) -> None:
        self._value += 1
        self._kick()

    def _kick(self) -> None:
        while self._waiters:
            task = self._waiters.popleft()
            if not task.done and not task._cancelled:
                task.loop.wake(task)
                return


# -- HTTP/1.1 client codec -------------------------------------------------

class HTTPResponse:
    """One decoded HTTP response."""

    __slots__ = ("status", "reason", "headers", "body", "reusable")

    def __init__(self, status: int, reason: str,
                 headers: Dict[str, str], body: bytes,
                 reusable: bool) -> None:
        self.status = status
        self.reason = reason
        self.headers = headers
        self.body = body
        #: keep-alive verdict: protocol allows reusing the connection.
        self.reusable = reusable

    def header(self, name: str, default: Optional[str] = None,
               ) -> Optional[str]:
        return self.headers.get(name.lower(), default)


_CONNECT_IN_PROGRESS = {errno.EINPROGRESS, errno.EWOULDBLOCK,
                        errno.EALREADY, errno.EINTR}


class _Connection:
    """One non-blocking client connection with a receive buffer."""

    __slots__ = ("host", "port", "sock", "requests_served", "_buffer")

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.sock: Optional[socket.socket] = None
        self.requests_served = 0
        self._buffer = b""

    @property
    def key(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def close(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:  # pragma: no cover - close never matters
                pass
            self.sock = None

    # -- connect -------------------------------------------------------

    def connect(self, timeout: Optional[float],
                ) -> Generator[Any, Any, None]:
        # getaddrinfo is synchronous; campaign targets are literal
        # addresses (the simulated LG binds 127.0.0.1) so this never
        # blocks on a resolver in practice.
        infos = socket.getaddrinfo(self.host, self.port,
                                   type=socket.SOCK_STREAM)
        family, kind, proto, _name, address = infos[0]
        sock = socket.socket(family, kind, proto)
        sock.setblocking(False)
        try:
            # keep-alive request/response traffic is many small
            # writes; Nagle + delayed ACK turns each into a ~40ms
            # stall.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            code = sock.connect_ex(address)
            if code not in _CONNECT_IN_PROGRESS and code != 0:
                raise ConnectionClosed(
                    f"connect to {self.host}:{self.port} failed: "
                    f"{errno.errorcode.get(code, code)}")
            if code != 0:
                yield _WaitIO(sock, selectors.EVENT_WRITE, timeout)
                code = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
                if code != 0:
                    raise ConnectionClosed(
                        f"connect to {self.host}:{self.port} failed: "
                        f"{errno.errorcode.get(code, code)}")
        except BaseException:
            sock.close()
            raise
        self.sock = sock

    # -- raw I/O -------------------------------------------------------

    def _send_all(self, data: bytes, timeout: Optional[float],
                  ) -> Generator[Any, Any, None]:
        assert self.sock is not None
        try:
            yield from send_all(self.sock, data, timeout)
        except (IOTimeout, ConnectionClosed):
            raise
        except OSError as error:
            raise ConnectionClosed(f"send failed: {error}") from error

    def _recv_more(self, timeout: Optional[float],
                   ) -> Generator[Any, Any, bool]:
        """Grow the buffer by one recv; False on orderly EOF."""
        assert self.sock is not None
        try:
            chunk = yield from recv_some(self.sock, timeout)
        except (IOTimeout, ConnectionClosed):
            raise
        except OSError as error:
            raise ConnectionClosed(f"recv failed: {error}") from error
        if chunk:
            self._buffer += chunk
            return True
        return False

    def _read_line(self, timeout: Optional[float],
                   ) -> Generator[Any, Any, bytes]:
        while b"\r\n" not in self._buffer:
            if len(self._buffer) > MAX_HEAD_BYTES:
                raise ProtocolError("unterminated header line")
            if not (yield from self._recv_more(timeout)):
                raise ConnectionClosed("EOF inside response head")
        line, _, self._buffer = self._buffer.partition(b"\r\n")
        return line

    def _read_exact(self, count: int, timeout: Optional[float],
                    ) -> Generator[Any, Any, bytes]:
        while len(self._buffer) < count:
            if not (yield from self._recv_more(timeout)):
                raise ConnectionClosed(
                    f"EOF with {count - len(self._buffer)} body bytes "
                    f"outstanding")
        taken, self._buffer = self._buffer[:count], self._buffer[count:]
        return taken

    # -- one request/response exchange --------------------------------

    def request(self, method: str, path: str,
                headers: List[Tuple[str, str]],
                timeout: Optional[float],
                ) -> Generator[Any, Any, HTTPResponse]:
        lines = [f"{method} {path} HTTP/1.1"]
        lines.extend(f"{name}: {value}" for name, value in headers)
        lines.extend(("", ""))
        yield from self._send_all("\r\n".join(lines).encode("latin-1"),
                                  timeout)
        response = yield from self._read_response(timeout)
        self.requests_served += 1
        return response

    def _read_response(self, timeout: Optional[float],
                       ) -> Generator[Any, Any, HTTPResponse]:
        status_line = yield from self._read_line(timeout)
        parts = status_line.split(None, 2)
        if len(parts) < 2 or not parts[0].startswith(b"HTTP/"):
            raise ProtocolError(f"bad status line: {status_line[:80]!r}")
        version = parts[0].decode("latin-1")
        try:
            status = int(parts[1])
        except ValueError:
            raise ProtocolError(
                f"bad status code: {status_line[:80]!r}") from None
        reason = parts[2].decode("latin-1") if len(parts) > 2 else ""
        headers: Dict[str, str] = {}
        while True:
            line = yield from self._read_line(timeout)
            if not line:
                break
            name, sep, value = line.partition(b":")
            if not sep:
                raise ProtocolError(f"bad header line: {line[:80]!r}")
            headers[name.decode("latin-1").strip().lower()] = \
                value.decode("latin-1").strip()

        delimited = True
        if headers.get("transfer-encoding", "").lower() == "chunked":
            body = yield from self._read_chunked(timeout)
        elif "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError:
                raise ProtocolError("unparseable Content-Length") from None
            body = yield from self._read_exact(length, timeout)
        elif status in (204, 304):
            body = b""
        else:
            # no framing: body runs to EOF, connection is spent.
            delimited = False
            chunks = [self._buffer]
            self._buffer = b""
            while (yield from self._recv_more(timeout)):
                chunks.append(self._buffer)
                self._buffer = b""
            body = b"".join(chunks)

        connection = headers.get("connection", "").lower()
        reusable = (delimited and connection != "close"
                    and (version == "HTTP/1.1"
                         or connection == "keep-alive"))
        return HTTPResponse(status, reason, headers, bytes(body),
                            reusable)

    def _read_chunked(self, timeout: Optional[float],
                      ) -> Generator[Any, Any, bytes]:
        body = bytearray()
        while True:
            size_line = yield from self._read_line(timeout)
            try:
                size = int(size_line.split(b";", 1)[0], 16)
            except ValueError:
                raise ProtocolError(
                    f"bad chunk size: {size_line[:80]!r}") from None
            if size == 0:
                while True:  # trailers until the blank line
                    trailer = yield from self._read_line(timeout)
                    if not trailer:
                        return bytes(body)
            chunk = yield from self._read_exact(size, timeout)
            body.extend(chunk)
            terminator = yield from self._read_exact(2, timeout)
            if terminator != b"\r\n":
                raise ProtocolError("chunk missing CRLF terminator")


# -- connection pool -------------------------------------------------------

class ConnectionPool:
    """Keep-alive connections per (host, port), hard-capped.

    ``max_per_host`` is the pressure bound on any one server: when
    every connection is checked out, further acquirers **park** until a
    release — they never open an extra socket. Idle connections are
    liveness-checked with a zero-copy ``MSG_PEEK`` before reuse, so a
    server that closed an idle connection costs a reopen, not an error.
    """

    def __init__(self, max_per_host: int = 8,
                 connect_timeout: Optional[float] = None,
                 on_open: Optional[Callable[[Tuple[str, int]], None]] = None,
                 on_reuse: Optional[Callable[[Tuple[str, int]], None]] = None,
                 on_close: Optional[Callable[[Tuple[str, int]], None]] = None,
                 ) -> None:
        if max_per_host < 1:
            raise ValueError("max_per_host must be >= 1")
        self.max_per_host = max_per_host
        self.connect_timeout = connect_timeout
        self.on_open = on_open
        self.on_reuse = on_reuse
        self.on_close = on_close
        self._idle: Dict[Tuple[str, int], Deque[_Connection]] = {}
        self._open: Dict[Tuple[str, int], int] = {}
        self._waiters: Dict[Tuple[str, int], Deque[Task]] = {}
        self.opened = 0
        self.reused = 0
        self.closed = 0

    def open_connections(self,
                         key: Optional[Tuple[str, int]] = None) -> int:
        if key is not None:
            return self._open.get(key, 0)
        return sum(self._open.values())

    @staticmethod
    def _alive(conn: _Connection) -> bool:
        if conn.sock is None:
            return False
        try:
            peeked = conn.sock.recv(1, socket.MSG_PEEK)
        except (BlockingIOError, InterruptedError):
            return True  # no bytes pending: idle and healthy
        except OSError:
            return False
        # pending bytes on an idle keep-alive connection are protocol
        # garbage; EOF means the server hung up. Either way: discard.
        return False

    def acquire(self, host: str, port: int,
                timeout: Optional[float] = None,
                ) -> Generator[Any, Any, _Connection]:
        key = (host, port)
        while True:
            idle = self._idle.get(key)
            while idle:
                conn = idle.pop()
                if self._alive(conn):
                    self.reused += 1
                    if self.on_reuse is not None:
                        self.on_reuse(key)
                    return conn
                self._discard(conn)
            if self._open.get(key, 0) < self.max_per_host:
                self._open[key] = self._open.get(key, 0) + 1
                conn = _Connection(host, port)
                try:
                    yield from conn.connect(
                        timeout if timeout is not None
                        else self.connect_timeout)
                except BaseException:
                    self._open[key] -= 1
                    self._kick(key)
                    raise
                self.opened += 1
                if self.on_open is not None:
                    self.on_open(key)
                return conn
            # at the cap: park until a release (or discard) frees slack.
            try:
                yield _Park(
                    self._waiters.setdefault(key, deque()).append)
            except BaseException:
                self._kick(key)
                raise

    def release(self, conn: _Connection, reusable: bool = True) -> None:
        if reusable and conn.sock is not None:
            self._idle.setdefault(conn.key, deque()).append(conn)
        else:
            self._discard(conn)
        self._kick(conn.key)

    def _discard(self, conn: _Connection) -> None:
        conn.close()
        key = conn.key
        self._open[key] = max(0, self._open.get(key, 0) - 1)
        self.closed += 1
        if self.on_close is not None:
            self.on_close(key)

    def _kick(self, key: Tuple[str, int]) -> None:
        waiters = self._waiters.get(key)
        while waiters:
            task = waiters.popleft()
            if not task.done and not task._cancelled:
                task.loop.wake(task)
                return

    def close_all(self) -> None:
        for idle in self._idle.values():
            while idle:
                self._discard(idle.pop())


# -- request helper --------------------------------------------------------

def http_request(pool: ConnectionPool, method: str, url: str,
                 headers: Optional[List[Tuple[str, str]]] = None,
                 timeout: Optional[float] = None,
                 ) -> Generator[Any, Any, HTTPResponse]:
    """Coroutine: one HTTP exchange through the pool.

    A request on a **reused** connection that dies before any response
    byte is retried once on a fresh connection — the server closed the
    idle connection between our liveness peek and the request landing
    (the classic stale keep-alive race; safe for the GETs we issue).
    """
    parsed = urllib.parse.urlsplit(url)
    if parsed.scheme != "http":
        raise ProtocolError(f"unsupported scheme in {url!r}")
    host = parsed.hostname or ""
    port = parsed.port or 80
    path = parsed.path or "/"
    if parsed.query:
        path = f"{path}?{parsed.query}"
    host_header = host if port == 80 else f"{host}:{port}"
    wire_headers = [("Host", host_header),
                    ("Accept", "application/json"),
                    ("User-Agent", "repro-aio/1.0")]
    if headers:
        wire_headers.extend(headers)
    for attempt in (0, 1):
        conn = yield from pool.acquire(host, port, timeout)
        fresh = conn.requests_served == 0
        try:
            response = yield from conn.request(method, path,
                                               wire_headers, timeout)
        except ConnectionClosed:
            pool.release(conn, reusable=False)
            if fresh or attempt == 1:
                raise
            continue
        except BaseException:
            pool.release(conn, reusable=False)
            raise
        pool.release(conn, reusable=response.reusable)
        return response
    raise AssertionError("unreachable")
