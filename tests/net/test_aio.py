"""Unit tests for the event-driven I/O substrate (:mod:`repro.net.aio`):
loop scheduling, timer wheel, semaphore discipline, the HTTP/1.1 client
codec against a scripted socket server, and the capped keep-alive pool.
"""

import selectors
import socket
import threading
import time

import pytest

from repro.net import aio
from repro.net.aio import (
    ConnectionPool,
    EventLoop,
    IOTimeout,
    ProtocolError,
    Semaphore,
    TaskCancelled,
    TimerWheel,
    http_request,
)


# -- scripted HTTP server ---------------------------------------------------

class ScriptedServer:
    """A real TCP server answering each request with the next scripted
    raw byte blob (one blob per request; keep-alive by default)."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []
        self.accepted = 0
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(16)
        self.port = self._sock.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                self._sock.settimeout(0.1)
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            self.accepted += 1
            threading.Thread(target=self._handle, args=(conn,),
                             daemon=True).start()

    def _handle(self, conn):
        conn.settimeout(5.0)
        try:
            while not self._stop.is_set():
                head = b""
                while b"\r\n\r\n" not in head:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    head += chunk
                self.requests.append(head)
                if not self.responses:
                    return  # close without answering
                blob = self.responses.pop(0)
                if blob is None:
                    return  # scripted mid-stream close
                close_after = False
                if isinstance(blob, tuple):
                    blob, close_after = blob[0], True
                conn.sendall(blob)
                if close_after:
                    return  # scripted close right after the response
        except OSError:
            pass
        finally:
            conn.close()

    def close(self):
        self._stop.set()
        self._thread.join(timeout=2)
        self._sock.close()

    @property
    def url(self):
        return f"http://127.0.0.1:{self.port}"


def ok(body=b"hello", extra=b"", version=b"HTTP/1.1"):
    return (version + b" 200 OK\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n" + extra + b"\r\n" + body)


def chunked(parts, trailers=b""):
    out = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
    for part in parts:
        out += format(len(part), "x").encode() + b"\r\n" + part + b"\r\n"
    return out + b"0\r\n" + trailers + b"\r\n"


# -- timer wheel ------------------------------------------------------------

class TestTimerWheel:
    def test_fires_in_deadline_order(self):
        clock = [0.0]
        wheel = TimerWheel(lambda: clock[0])
        fired = []
        wheel.schedule(0.3, lambda: fired.append("late"))
        wheel.schedule(0.1, lambda: fired.append("early"))
        clock[0] = 0.2
        assert wheel.fire_due() == 1
        assert fired == ["early"]
        clock[0] = 0.4
        wheel.fire_due()
        assert fired == ["early", "late"]

    def test_cancelled_timer_never_fires(self):
        clock = [0.0]
        wheel = TimerWheel(lambda: clock[0])
        fired = []
        timer = wheel.schedule(0.1, lambda: fired.append("no"))
        wheel.schedule(0.2, lambda: fired.append("yes"))
        wheel.discard(timer)
        assert len(wheel) == 1
        clock[0] = 1.0
        wheel.fire_due()
        assert fired == ["yes"]

    def test_next_deadline_skips_tombstones(self):
        clock = [0.0]
        wheel = TimerWheel(lambda: clock[0])
        first = wheel.schedule(0.1, lambda: None)
        wheel.schedule(0.5, lambda: None)
        wheel.discard(first)
        assert wheel.next_deadline() == pytest.approx(0.5)


# -- loop -------------------------------------------------------------------

class TestEventLoop:
    def test_sleep_ordering(self):
        loop = EventLoop()
        order = []

        def napper(name, delay):
            yield from aio.sleep(delay)
            order.append(name)

        loop.spawn(napper("slow", 0.02), "slow")
        task = loop.spawn(napper("fast", 0.005), "fast")
        loop.run_until_complete(task)
        while loop.live_tasks:
            loop.run_once()
        assert order == ["fast", "slow"]

    def test_injected_sleep_gets_exact_delays_and_resumes_at_once(self):
        """With ``sleep`` set, a task's ``aio.sleep(s)`` calls it with
        exactly ``s`` and resumes without a loop timer."""
        naps = []
        loop = EventLoop(sleep=naps.append)

        def napper():
            for delay in (0.1, 0.2, 3600.0):
                yield from aio.sleep(delay)
            return "awake"

        started = time.monotonic()
        task = loop.spawn(napper(), "napper")
        assert loop.run_until_complete(task) == "awake"
        assert naps == [0.1, 0.2, 3600.0]
        assert len(loop.timers) == 0
        assert time.monotonic() - started < 1.0

    def test_injected_sleep_leaves_io_timeouts_real(self):
        """Virtual sleeps do not advance the loop's clock: an I/O wait
        beside a task sleeping virtual hours still gets its data, not
        a spurious :class:`IOTimeout`."""
        clock = {"now": 0.0}

        def fake_sleep(seconds):
            clock["now"] += seconds

        loop = EventLoop(sleep=fake_sleep)
        left, right = socket.socketpair()
        left.setblocking(False)
        try:
            def reader():
                yield from aio.wait_io(left, selectors.EVENT_READ,
                                       timeout=5.0)
                return left.recv(16)

            def sleeper():
                for _ in range(10):
                    yield from aio.sleep(3600.0)
                right.sendall(b"late")

            loop.spawn(sleeper(), "sleeper")
            task = loop.spawn(reader(), "reader")
            assert loop.run_until_complete(task) == b"late"
            assert clock["now"] == 36000.0
        finally:
            left.close()
            right.close()
            loop.close()

    def test_task_error_propagates(self):
        loop = EventLoop()

        def boom():
            yield from aio.sleep(0)
            raise ValueError("kapow")

        with pytest.raises(ValueError, match="kapow"):
            loop.run_until_complete(loop.spawn(boom(), "boom"))

    def test_join_waits_for_sibling(self):
        loop = EventLoop()

        def child():
            yield from aio.sleep(0.002)
            return 41

        def parent():
            task = loop.spawn(child(), "child")
            done = yield from aio.join(task)
            assert done is task and done.done
            return done.result + 1

        assert loop.run_until_complete(
            loop.spawn(parent(), "parent")) == 42

    def test_stalled_loop_raises_instead_of_hanging(self):
        loop = EventLoop()

        def parked_forever():
            yield aio._Park(lambda task: None)  # nobody will wake this

        task = loop.spawn(parked_forever(), "zombie")
        with pytest.raises(RuntimeError, match="stalled"):
            loop.run_until_complete(task)

    def test_cancel_runs_finally_blocks(self):
        loop = EventLoop()
        released = []

        def holder():
            try:
                yield from aio.sleep(60)
            finally:
                released.append(True)

        task = loop.spawn(holder(), "holder")
        loop.run_once(max_wait=0)
        task.cancel()
        loop.run_once(max_wait=0)
        assert task.done and released == [True]
        assert isinstance(task.error, TaskCancelled)

    def test_close_cancels_live_tasks(self):
        """Tasks parked on a timer or not yet started are cancelled by
        ``close``, their ``finally`` blocks run before it returns."""
        loop = EventLoop()
        released = []

        def holder(name):
            try:
                yield from aio.sleep(60)
            finally:
                released.append(name)

        parked = loop.spawn(holder("parked"), "parked")
        loop.run_once(max_wait=0)
        unstarted = loop.spawn(holder("unstarted"), "unstarted")
        assert loop.live_tasks == 2
        loop.close()
        assert loop.live_tasks == 0
        assert released == ["parked"]  # never entered its try block
        assert isinstance(parked.error, TaskCancelled)
        assert unstarted.done and isinstance(unstarted.error,
                                             TaskCancelled)

    def test_non_instruction_yield_is_an_error(self):
        loop = EventLoop()

        def confused():
            yield "not an instruction"

        task = loop.spawn(confused(), "confused")
        with pytest.raises(RuntimeError, match="non-instruction"):
            loop.run_until_complete(task)

    def test_completed_task_does_not_cost_max_wait(self):
        """Regression: a task that completes during the first drain
        (e.g. its response raced ahead of the recv) must not make
        run_once sleep the full max_wait with an empty selector."""
        loop = EventLoop()

        def instant():
            return 7
            yield  # pragma: no cover - makes this a generator

        task = loop.spawn(instant(), "instant")
        started = time.perf_counter()
        result = loop.run_until_complete(task, max_wait=0.5)
        assert result == 7
        assert time.perf_counter() - started < 0.1

    def test_io_wait_timeout_raises_iotimeout(self):
        loop = EventLoop()
        server = ScriptedServer([b""])  # reads, then never answers
        try:
            def impatient():
                conn = aio._Connection("127.0.0.1", server.port)
                yield from conn.connect(1.0)
                try:
                    yield from conn.request("GET", "/", {}, timeout=0.05)
                finally:
                    conn.close()

            with pytest.raises(IOTimeout):
                loop.run_until_complete(loop.spawn(impatient(), "t"))
        finally:
            server.close()


# -- semaphore --------------------------------------------------------------

class TestSemaphore:
    def test_bounds_concurrency(self):
        loop = EventLoop()
        sem = Semaphore(2)
        peak = [0]
        active = [0]

        def worker():
            yield from sem.acquire()
            try:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
                yield from aio.sleep(0.002)
            finally:
                active[0] -= 1
                sem.release()

        tasks = [loop.spawn(worker(), f"w{i}") for i in range(8)]
        while not all(task.done for task in tasks):
            loop.run_once()
        assert peak[0] == 2
        assert sem.available == 2

    def test_cancelled_waiter_does_not_strand_the_slot(self):
        loop = EventLoop()
        sem = Semaphore(1)
        got = []

        def holder():
            yield from sem.acquire()
            yield from aio.sleep(0.01)
            sem.release()

        def waiter(name):
            yield from sem.acquire()
            got.append(name)
            sem.release()

        loop.spawn(holder(), "holder")
        doomed = loop.spawn(waiter("doomed"), "doomed")
        survivor = loop.spawn(waiter("survivor"), "survivor")
        loop.run_once(max_wait=0)
        doomed.cancel()
        while not survivor.done:
            loop.run_once()
        assert got == ["survivor"]
        assert sem.available == 1


# -- HTTP codec -------------------------------------------------------------

def fetch(loop, pool, url, timeout=5.0):
    return loop.run_until_complete(loop.spawn(
        http_request(pool, "GET", url, {}, timeout), "fetch"))


class TestHTTPCodec:
    def test_content_length_body(self):
        server = ScriptedServer([ok(b"hello world")])
        loop, pool = EventLoop(), ConnectionPool()
        try:
            response = fetch(loop, pool, server.url + "/x")
            assert response.status == 200
            assert response.body == b"hello world"
            assert response.header("content-length") == "11"
        finally:
            pool.close_all()
            server.close()

    def test_chunked_body_with_trailers(self):
        server = ScriptedServer([chunked(
            [b"hel", b"lo ", b"chunks"],
            trailers=b"X-Trailer: ignored\r\n")])
        loop, pool = EventLoop(), ConnectionPool()
        try:
            response = fetch(loop, pool, server.url + "/c")
            assert response.body == b"hello chunks"
            assert response.reusable
        finally:
            pool.close_all()
            server.close()

    def test_keep_alive_reuses_the_connection(self):
        server = ScriptedServer([ok(b"one"), ok(b"two")])
        loop, pool = EventLoop(), ConnectionPool()
        try:
            assert fetch(loop, pool, server.url + "/1").body == b"one"
            assert fetch(loop, pool, server.url + "/2").body == b"two"
            assert server.accepted == 1
            assert pool.reused == 1
        finally:
            pool.close_all()
            server.close()

    def test_connection_close_is_not_reused(self):
        server = ScriptedServer([
            ok(b"one", extra=b"Connection: close\r\n"), ok(b"two")])
        loop, pool = EventLoop(), ConnectionPool()
        try:
            first = fetch(loop, pool, server.url + "/1")
            assert first.body == b"one" and not first.reusable
            assert fetch(loop, pool, server.url + "/2").body == b"two"
            assert server.accepted == 2
        finally:
            pool.close_all()
            server.close()

    def test_garbage_status_line_is_protocol_error(self):
        server = ScriptedServer([b"WAT/1.1 banana\r\n\r\n"])
        loop, pool = EventLoop(), ConnectionPool()
        try:
            with pytest.raises(ProtocolError):
                fetch(loop, pool, server.url + "/g")
        finally:
            pool.close_all()
            server.close()

    def test_http_10_body_read_to_eof(self):
        body = b"HTTP/1.0 200 OK\r\n\r\nold-school"
        server = ScriptedServer([(body, "close")])
        loop, pool = EventLoop(), ConnectionPool()
        try:
            response = fetch(loop, pool, server.url + "/old")
            # no framing: read to EOF, connection not reusable
            assert response.body == b"old-school"
            assert not response.reusable
        finally:
            pool.close_all()
            server.close()

    def test_stale_keepalive_connection_is_retried_once(self):
        """Server closes the idle keep-alive connection between
        requests: the second request must transparently retry on a
        fresh connection instead of surfacing ConnectionClosed."""
        server = ScriptedServer([ok(b"one"), None, ok(b"two")])
        loop, pool = EventLoop(), ConnectionPool()
        try:
            assert fetch(loop, pool, server.url + "/1").body == b"one"
            # the scripted None makes the *reused* connection die on
            # the next request before any response byte
            assert fetch(loop, pool, server.url + "/2").body == b"two"
            assert server.accepted == 2
        finally:
            pool.close_all()
            server.close()


# -- connection pool --------------------------------------------------------

class TestConnectionPool:
    def test_per_host_cap_parks_excess_acquirers(self):
        server = ScriptedServer([ok(b"r%d" % i) for i in range(6)])
        loop = EventLoop()
        pool = ConnectionPool(max_per_host=2)
        done = []

        def one(i):
            response = yield from http_request(
                pool, "GET", server.url + f"/{i}", {}, 5.0)
            done.append(response.body)

        try:
            tasks = [loop.spawn(one(i), f"r{i}") for i in range(6)]
            while not all(task.done for task in tasks):
                loop.run_once()
            for task in tasks:
                assert task.error is None, task.error
            assert len(done) == 6
            assert pool.opened <= 2
            assert server.accepted <= 2
        finally:
            pool.close_all()
            server.close()

    def test_open_connections_tracks_by_host(self):
        server = ScriptedServer([ok(b"x")])
        loop = EventLoop()
        pool = ConnectionPool(max_per_host=4)
        try:
            fetch(loop, pool, server.url + "/x")
            key = ("127.0.0.1", server.port)
            assert pool.open_connections(key) == 1
            pool.close_all()
            assert pool.open_connections(key) == 0
        finally:
            server.close()
