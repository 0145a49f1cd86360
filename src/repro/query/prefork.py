"""Pre-fork worker supervisor: N processes, one listening port.

Each worker serves from one event loop on one thread, so one worker
does at most one core of useful work and the scale story is processes, exactly like the
collection engine's dispatch workers. Two sharing strategies, picked
at runtime:

* **SO_REUSEPORT** (Linux, modern BSDs) — every worker binds its own
  socket to the same address with ``SO_REUSEPORT`` set; the kernel
  hash-balances incoming connections across the accept queues. No FD
  passing, no thundering herd;
* **inherited FD** (everywhere ``fork`` exists) — the supervisor binds
  one socket before forking and every worker accepts on the inherited
  FD; every worker's loop may wake for one connection, and the losers'
  ``accept`` raises ``BlockingIOError``.

Platforms without ``fork`` (or ``workers=1``) serve in-process — same
code path as a single pre-fork worker, no supervisor.

The supervisor itself never serves. It installs a
:class:`~repro.net.shutdown.ShutdownLatch`, restarts workers that die
unexpectedly (bounded — a crash-looping store should kill the service,
not spin it), and on SIGTERM/SIGINT forwards the signal to every
worker, then reaps them; each worker drains in-flight requests through
:meth:`QueryHTTPServer.stop` before exiting. Worker aggregate-cache
writes land in the shared store through its atomic-publish path, so
workers warm each other's caches and a restart loses nothing.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import time
import traceback
from typing import Callable, Dict, Optional

from ..net.shutdown import ShutdownLatch
from .server import QueryHTTPServer

#: exit code a worker reports when its serve loop raised.
WORKER_CRASH_EXIT = 70


def can_prefork() -> bool:
    return hasattr(os, "fork")


def reuse_port_available() -> bool:
    return hasattr(socket, "SO_REUSEPORT")


def make_listening_socket(host: str, port: int,
                          reuse_port: bool,
                          backlog: int = 128) -> socket.socket:
    """A bound, listening TCP socket (IPv4 — both servers here bind
    loopback or explicit addresses, not wildcard dual-stack)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    if reuse_port:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    sock.listen(backlog)
    return sock


class PreforkServer:
    """Supervise N :class:`QueryHTTPServer` worker processes.

    ``server_factory(sock)`` must build a fresh server bound to the
    given socket; it runs *after* fork, in the worker, so every worker
    gets its own store handles, response cache, rate limiter, and
    metrics registry (forked registries diverge per process — each
    worker's ``/metrics`` describes that worker).
    """

    def __init__(self,
                 server_factory: Callable[[socket.socket],
                                          QueryHTTPServer],
                 host: str = "127.0.0.1", port: int = 8700,
                 workers: int = 2,
                 drain_timeout: float = 10.0,
                 max_respawns: int = 5,
                 prefer_reuse_port: bool = True) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.server_factory = server_factory
        self.host = host
        self.port = port
        self.workers = workers
        self.drain_timeout = drain_timeout
        self.max_respawns = max_respawns
        self.reuse_port = prefer_reuse_port and reuse_port_available()
        #: pid → worker index, while running.
        self._children: Dict[int, int] = {}
        self._respawns = 0

    @property
    def mode(self) -> str:
        if self.workers <= 1 or not can_prefork():
            return "in-process"
        return "SO_REUSEPORT" if self.reuse_port else "inherited-fd"

    def announce(self) -> str:
        return (f"query API serving at http://{self.host}:{self.port} "
                f"(workers={self.workers}, {self.mode})")

    # -- entry point ----------------------------------------------------

    def run(self, latch: Optional[ShutdownLatch] = None) -> int:
        """Serve until SIGTERM/SIGINT (or ``latch`` trips); returns an
        exit code. Blocks the calling thread."""
        sock = make_listening_socket(self.host, self.port,
                                     self.reuse_port)
        self.port = sock.getsockname()[1]
        print(self.announce(), flush=True)
        if self.workers <= 1 or not can_prefork():
            return self._serve_inline(sock, latch)
        return self._supervise(sock, latch)

    # -- single-process fallback ----------------------------------------

    def _serve_inline(self, sock: socket.socket,
                      latch: Optional[ShutdownLatch]) -> int:
        latch = latch or ShutdownLatch()
        restore = latch.install()
        server = self.server_factory(sock)
        server.start()
        try:
            latch.wait()
        except KeyboardInterrupt:  # latch not installable (rare)
            pass
        finally:
            restore()
            server.stop()
        return 0

    # -- worker ----------------------------------------------------------

    def _spawn(self, index: int, sock: socket.socket) -> int:
        pid = os.fork()
        if pid != 0:
            return pid
        # -- worker process ---------------------------------------------
        status = WORKER_CRASH_EXIT
        try:
            status = self._worker(index, sock)
        except BaseException:  # noqa: BLE001 — last-resort report
            traceback.print_exc()
        finally:
            # never run the supervisor's finally blocks / atexit in a
            # forked worker
            os._exit(status)
        return 0  # unreachable; keeps type checkers honest

    def _worker(self, index: int, inherited: socket.socket) -> int:
        latch = ShutdownLatch()
        latch.install()
        if self.reuse_port:
            # own socket, own accept queue; drop the inherited one.
            inherited.close()
            sock = make_listening_socket(self.host, self.port, True)
        else:
            sock = inherited
        server = self.server_factory(sock)
        server.start()
        latch.wait()
        server.stop()  # graceful drain before the exit
        return 0

    # -- supervisor -------------------------------------------------------

    def _supervise(self, sock: socket.socket,
                   latch: Optional[ShutdownLatch]) -> int:
        latch = latch or ShutdownLatch()
        restore = latch.install()
        exit_code = 0
        try:
            for index in range(self.workers):
                self._children[self._spawn(index, sock)] = index
            if self.reuse_port:
                # workers bound their own sockets; the supervisor's
                # copy only held the port during the fork window.
                sock.close()
            while self._children and not latch.tripped():
                self._reap_and_respawn(sock, latch)
                latch.wait(0.1)
            if not self._children and not latch.tripped():
                # every worker crashed through the respawn budget
                exit_code = 1
        finally:
            restore()
            self._shutdown_children()
            if not self.reuse_port:
                sock.close()
        return exit_code

    def _reap_and_respawn(self, sock: socket.socket,
                          latch: ShutdownLatch) -> None:
        for pid in list(self._children):
            done, status = os.waitpid(pid, os.WNOHANG)
            if done == 0:
                continue
            index = self._children.pop(pid)
            if latch.tripped():
                continue
            code = os.waitstatus_to_exitcode(status)
            print(f"query worker {index} (pid {pid}) exited "
                  f"unexpectedly ({code})", file=sys.stderr, flush=True)
            if self._respawns < self.max_respawns:
                self._respawns += 1
                self._children[self._spawn(index, sock)] = index

    def _shutdown_children(self) -> None:
        for pid in self._children:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + self.drain_timeout
        pending = dict(self._children)
        while pending and time.monotonic() < deadline:
            for pid in list(pending):
                done, _status = os.waitpid(pid, os.WNOHANG)
                if done != 0:
                    pending.pop(pid)
            if pending:
                time.sleep(0.05)
        for pid in pending:  # drain timeout blown: hard stop
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        self._children.clear()
