"""Query API HTTP server (stdlib only).

One worker process serves from one event loop on one thread:
:class:`repro.net.httpserver.LoopHTTPServer` accepts, reads and writes
non-blocking sockets on a :class:`repro.net.aio.EventLoop` and calls
:meth:`QueryHTTPServer.handle` inline for every parsed request.
``handle`` is a socket-free function from ``(path, If-None-Match)`` to
``(status, body, headers, route)`` that unit tests exercise directly,
exactly like the Looking Glass server.

Request discipline, in order:

1. ``/metrics`` and ``/healthz`` are the ops plane: never rate
   limited, never shed — an overloaded server must stay observable;
2. **overload shedding** — more than ``max_inflight`` requests already
   in flight answers 503 + ``Retry-After`` without doing any work. A
   request is in flight from the moment its head is parsed until its
   last byte is handed to the kernel, so a slow reader counts;
3. **rate limiting** — the shared :class:`repro.net.TokenBucket`
   answers 429 + ``Retry-After`` (always positive, see the net
   module) when clients query too fast;
4. routing (404 for unknown paths), then the **view breaker**: builder
   failures trip a :class:`repro.lg.breaker.CircuitBreaker`, and while
   it is open every data route answers 503 + ``Retry-After`` instead
   of hammering a store that just demonstrated it cannot serve;
5. ETag revalidation / response cache / body build, all inside
   :meth:`repro.query.views.QueryService.respond`.

Builds run inline on the loop: while a worker rebuilds a body it
answers nothing else, ``/metrics`` included (other workers still
serve). GET and HEAD both count in the request, latency and in-flight
metrics; a HEAD answers a GET's headers without its body.

``stop()`` is a graceful drain: the server stops accepting, closes
idle keep-alive connections, finishes the responses being written
(bounded), then closes the listening socket — the pre-fork supervisor
calls this on SIGTERM, so a worker never kills a response mid-write.
"""

from __future__ import annotations

import contextlib
import socket
import time
import types
from typing import Any, Dict, Generator, Iterator, Optional, Tuple
from urllib.parse import urlparse

from .. import obs
from ..lg.breaker import CircuitBreaker
from ..net.httpserver import Answer, LoopHTTPServer, Request, Respond
from ..net.ratelimit import TokenBucket
from .router import Router, UNKNOWN
from .views import JSON_TYPE, QueryService, Response, _error_body

_METRICS = obs.MetricSet(lambda reg: types.SimpleNamespace(
    requests=reg.counter(
        "repro_query_requests_total",
        "Requests answered by the query API, by route and HTTP status",
        ("route", "status")),
    latency=reg.histogram(
        "repro_query_request_seconds",
        "Wall-clock seconds serving one query API request", ("route",)),
    inflight=reg.gauge(
        "repro_query_inflight_requests",
        "Query API requests currently being served").labels(),
    shed=reg.counter(
        "repro_query_shed_total",
        "Requests refused without serving, by reason "
        "(overload / ratelimit / breaker)", ("reason",)),
    cache=reg.counter(
        "repro_query_response_events_total",
        "Response outcomes by source (cache_hit / cache_miss / "
        "not_modified)", ("event",)),
))


class QueryHTTPServer:
    """The study query API over one :class:`QueryService`."""

    def __init__(self, service: QueryService,
                 host: str = "127.0.0.1", port: int = 0,
                 rate_per_second: float = 500.0, burst: int = 500,
                 max_inflight: int = 64,
                 breaker_threshold: int = 5,
                 breaker_reset: float = 2.0,
                 sock: Optional[socket.socket] = None) -> None:
        self.service = service
        self.router = Router()
        self.bucket = TokenBucket(rate_per_second, burst)
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_threshold,
            reset_timeout=breaker_reset, name="query")
        self.max_inflight = max_inflight
        self.host = host
        self.port = port
        #: an already-bound, already-listening socket to adopt (the
        #: pre-fork supervisor's inherited-FD mode); None binds fresh.
        self._given_socket = sock
        if sock is not None:
            self.host, self.port = sock.getsockname()[:2]
        self._inflight = 0
        self._http: Optional[LoopHTTPServer] = None

    # -- request handling (framework-free) ------------------------------

    def handle(self, path: str,
               if_none_match: Optional[str] = None,
               ) -> Tuple[int, bytes, Dict[str, str], str]:
        """One GET resolved to ``(status, body, headers, route)``."""
        parsed = urlparse(path)
        match = self.router.match(parsed.path)
        route = match.name if match is not None else UNKNOWN
        metrics = _METRICS()
        # ops plane first: observability and liveness bypass shedding.
        if route == "metrics":
            text = obs.render_prometheus(obs.get_registry()) \
                if obs.enabled() else "# observability disabled\n"
            return 200, text.encode("utf-8"), {
                "Content-Type": obs.CONTENT_TYPE}, route
        if route == "healthz":
            response = self.service.respond("healthz", {}, if_none_match)
            return (response.status, response.body,
                    self._headers(response), route)
        if not self._admit():
            metrics.shed.labels("overload").inc()
            return 503, _error_body(503, "server overloaded"), {
                "Content-Type": JSON_TYPE, "Retry-After": "1"}, route
        if not self.bucket.try_acquire():
            metrics.shed.labels("ratelimit").inc()
            return 429, _error_body(429, "query rate limit exceeded"), {
                "Content-Type": JSON_TYPE,
                "Retry-After": f"{self.bucket.retry_after:.3f}"}, route
        if match is None:
            return 404, _error_body(
                404, f"no such resource: {parsed.path}"), {
                "Content-Type": JSON_TYPE}, route
        if not self.breaker.allow():
            metrics.shed.labels("breaker").inc()
            return 503, _error_body(
                503, "service temporarily unavailable"), {
                "Content-Type": JSON_TYPE,
                "Retry-After":
                    f"{max(self.breaker.seconds_until_probe, 0.001):.3f}",
            }, route
        try:
            response = self.service.respond(route, match.params,
                                            if_none_match)
        except Exception as error:  # noqa: BLE001 — breaker boundary
            self.breaker.record_failure()
            return 500, _error_body(
                500, f"internal error: {error}"), {
                "Content-Type": JSON_TYPE}, route
        self.breaker.record_success()
        if response.cache_event is not None:
            metrics.cache.labels(f"cache_{response.cache_event}").inc()
        elif response.status == 304:
            metrics.cache.labels("not_modified").inc()
        return (response.status, response.body,
                self._headers(response), route)

    def _headers(self, response: Response) -> Dict[str, str]:
        headers = {"Content-Type": response.content_type}
        if response.etag is not None:
            headers["ETag"] = f'"{response.etag}"'
            # clients may cache, but must revalidate (If-None-Match
            # → 304 is nearly free; a stale aggregate is not).
            headers["Cache-Control"] = "no-cache"
        return headers

    def _admit(self) -> bool:
        return self._inflight <= self.max_inflight

    @contextlib.contextmanager
    def _track(self) -> Iterator[None]:
        # only the loop thread serves, so the count needs no lock.
        self._inflight += 1
        _METRICS().inflight.inc()
        try:
            yield
        finally:
            self._inflight -= 1
            _METRICS().inflight.dec()

    # -- transport ---------------------------------------------------------

    @contextlib.contextmanager
    def _connection(self) -> Iterator[Respond]:
        """One connection's scope for the loop; it keeps no state."""
        yield self._exchange

    def _exchange(self, request: Request,
                  answer: Answer) -> Generator[Any, Any, None]:
        """One request for the loop: in flight until the loop has
        handed the response's last byte to the kernel."""
        started = time.perf_counter()
        with self._track():
            status, body, headers, route = self.handle(
                request.target, request.headers.get("if-none-match"))
            metrics = _METRICS()
            metrics.requests.labels(route, str(status)).inc()
            metrics.latency.labels(route).observe(
                time.perf_counter() - started)
            yield from answer(status, headers.items(), body)

    def start(self) -> str:
        """Serve on a background event-loop thread; returns the base
        URL."""
        if self._http is not None:
            raise RuntimeError("server already started")
        sock = self._given_socket
        if sock is None:
            sock = socket.create_server((self.host, self.port),
                                        backlog=128)
        self.host, self.port = sock.getsockname()[:2]
        self._http = LoopHTTPServer(sock, self._connection)
        self._http.start()
        return self.base_url

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        """Stop accepting, then drain: close idle connections, finish
        the responses being written, close the socket."""
        if self._http is None:
            return
        self._http.stop()
        self._http = None

    @contextlib.contextmanager
    def serve(self) -> Iterator[str]:
        """Context-manager form of start/stop."""
        url = self.start()
        try:
            yield url
        finally:
            self.stop()
