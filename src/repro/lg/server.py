"""Looking Glass HTTP server (stdlib only).

Serves one or more route servers over the JSON API described in
:mod:`repro.lg.api`, with token-bucket rate limiting (HTTP 429) and
optional instability injection (HTTP 503) — the two failure modes the
paper's §3 collection had to survive.

Usage::

    server = LookingGlassServer({("decix-fra", 4): route_server})
    with server.serve() as base_url:
        ...  # point a LookingGlassClient at base_url

URL layout (one route server per (ixp, family) mount):

    /<ixp>/v<family>/api/v1/status
    /<ixp>/v<family>/api/v1/config
    /<ixp>/v<family>/api/v1/neighbors
    /<ixp>/v<family>/api/v1/neighbors/<asn>/routes?page=N[&filtered=1]

plus the birdseye layout and the ops-plane ``/metrics`` endpoint
(Prometheus text format, live when :func:`repro.obs.enable` has been
called). A ``page`` or ``page_size`` that is not an integer answers 400.

It serves from one :class:`repro.net.httpserver.LoopHTTPServer` event
loop thread, like the query API: a scheduled slow response waits on a
loop timer, so stalls on different connections overlap.
"""

from __future__ import annotations

import contextlib
import datetime as _dt
import functools
import json
import re
import socket
import threading
import types
from typing import (Any, Callable, Dict, Generator, Iterator, List,
                    Optional, Tuple)
from urllib.parse import parse_qs, urlparse

from .. import obs
from ..bgp.route import Route
from ..net import aio
from ..net.httpserver import Answer, LoopHTTPServer, Request, Respond
from ..net.ratelimit import TokenBucket
from ..routeserver.server import RouteServer
from . import api, dialects
from .ratelimit import (
    FAULT_MALFORMED,
    FAULT_OUTAGE,
    FAULT_SLOW,
    FaultSchedule,
    InstabilityInjector,
)

#: An ASN is 32 bits, at most ten digits: a longer id is no resource
#: (404), and never reaches ``int()`` and its digit limit.
_ROUTE_PATTERN = re.compile(
    r"^/(?P<ixp>[\w.-]+)/v(?P<family>[46])" + api.API_PREFIX
    + r"(?P<resource>/status|/config|/neighbors"
    + r"|/neighbors/(?P<asn>\d{1,10})/routes)$")

#: birdseye URL layout: /<ixp>/v<family>/api/protocols and
#: /<ixp>/v<family>/api/routes/pb_<asn>
_BIRDSEYE_PATTERN = re.compile(
    r"^/(?P<ixp>[\w.-]+)/v(?P<family>[46])/api"
    r"(?P<resource>/protocols|/routes/pb_(?P<asn>\d{1,10}))$")

#: ops-plane path serving the process metrics in Prometheus text
#: format (never rate limited, never fault injected).
METRICS_PATH = "/metrics"

#: mount prefix of any API path: /<ixp>/v<4|6>/...
_MOUNT_PATTERN = re.compile(r"^/(?P<ixp>[\w.-]+)/v(?P<family>[46])/")

_METRICS = obs.MetricSet(lambda reg: types.SimpleNamespace(
    requests=reg.counter(
        "repro_lg_server_requests_total",
        "Requests answered by the simulated LG, by HTTP status",
        ("status",)),
    ratelimited=reg.counter(
        "repro_lg_server_ratelimited_total",
        "Requests the simulated LG answered 429 (token bucket empty)"),
    cap_rejections=reg.counter(
        "repro_lg_server_cap_rejections_total",
        "Connections refused by the per-mount connection cap",
        ("mount",)),
))


def _routes_page(routes: List[Route], query: Dict[str, List[str]],
                 render: Callable[..., Dict[str, Any]],
                 ) -> Tuple[int, Dict[str, Any]]:
    """One page of ``routes`` in prefix order, as both URL layouts
    serve it: ``render(page_routes, page, page_size, total)``. ``page``
    and ``page_size`` come from ``query``, clamped to the API's bounds;
    either one not an integer answers 400."""
    try:
        page = max(1, int(query.get("page", ["1"])[0]))
        page_size = min(api.MAX_PAGE_SIZE, max(1, int(query.get(
            "page_size", [str(api.DEFAULT_PAGE_SIZE)])[0])))
    except ValueError:
        return 400, api.error_payload(
            "page and page_size must be integers", 400)
    routes.sort(key=lambda r: r.prefix)
    start = (page - 1) * page_size
    return 200, render(routes[start:start + page_size], page, page_size,
                       len(routes))


class _ConnectionLedger:
    """Per-mount accounting of open front-end connections.

    The cap fault mode models a real LG's reverse proxy shedding load:
    a connection is pinned to the mount of its first request (moved if
    a later request targets another mount) and released when it
    closes. ``peak`` and ``rejections`` are kept per mount so tests and
    benchmarks can assert that a well-capped client never trips the
    server's limit.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._mount_of: Dict[object, str] = {}
        self._count: Dict[str, int] = {}
        self.peak: Dict[str, int] = {}
        self.rejections: Dict[str, int] = {}

    def admit(self, conn_id: object, mount: str,
              cap: Optional[int]) -> bool:
        with self._lock:
            current = self._mount_of.get(conn_id)
            if current == mount:
                return True
            if current is not None:
                self._release_locked(conn_id)
            count = self._count.get(mount, 0)
            if cap is not None and count >= cap:
                self.rejections[mount] = \
                    self.rejections.get(mount, 0) + 1
                return False
            self._mount_of[conn_id] = mount
            self._count[mount] = count + 1
            self.peak[mount] = max(self.peak.get(mount, 0), count + 1)
            return True

    def drop(self, conn_id: object) -> None:
        with self._lock:
            self._release_locked(conn_id)

    def _release_locked(self, conn_id: object) -> None:
        mount = self._mount_of.pop(conn_id, None)
        if mount is not None:
            self._count[mount] = max(0, self._count.get(mount, 0) - 1)


class LookingGlassServer:
    """An HTTP Looking Glass over in-memory route servers."""

    def __init__(self, route_servers: Dict[Tuple[str, int], RouteServer],
                 rate_per_second: float = 200.0,
                 burst: int = 200,
                 failure_rate: float = 0.0,
                 host: str = "127.0.0.1",
                 port: int = 0,
                 faults: Optional[FaultSchedule] = None,
                 connection_cap: Optional[int] = None,
                 ) -> None:
        self.route_servers = dict(route_servers)
        self.bucket = TokenBucket(rate_per_second, burst)
        self.injector = InstabilityInjector(failure_rate=failure_rate)
        #: deterministic fault plan (outage windows, slow responses,
        #: truncated JSON); None disables.
        self.faults = faults
        #: concurrent-connection cap fault mode: beyond this many open
        #: connections per (ixp, family) mount, further connections are
        #: answered 503-and-close. None disables. Lets tests prove the
        #: client's connection cap actually bounds LG pressure.
        self.connection_cap = connection_cap
        self._ledger = _ConnectionLedger()
        self.host = host
        self.port = port
        self._http: Optional[LoopHTTPServer] = None

    # -- request handling (framework-free) ------------------------------

    def handle(self, path: str) -> Tuple[int, Dict[str, object]]:
        """Resolve one GET request path to (status, JSON payload).

        Pure function of server state — exercised directly by unit tests
        without sockets, and by the HTTP exchange below.
        """
        if self.injector.should_fail():
            return 503, api.error_payload("looking glass unstable", 503)
        if not self.bucket.try_acquire():
            _METRICS().ratelimited.labels().inc()
            return 429, api.error_payload("query rate limit exceeded", 429)
        parsed = urlparse(path)
        match = _ROUTE_PATTERN.match(parsed.path)
        if not match:
            birdseye = _BIRDSEYE_PATTERN.match(parsed.path)
            if birdseye is not None:
                return self._handle_birdseye(birdseye, parsed.query)
            return 404, api.error_payload(f"no such resource: {path}", 404)
        key = (match.group("ixp"), int(match.group("family")))
        server = self.route_servers.get(key)
        if server is None:
            return 404, api.error_payload(
                f"no route server mounted at {key}", 404)
        resource = match.group("resource")
        query = parse_qs(parsed.query)
        if resource == "/status":
            return 200, api.status_payload(
                key[0], key[1], server.config.rs_asn,
                _dt.datetime.now(_dt.timezone.utc).isoformat())
        if resource == "/config":
            if server.config.dictionary is None:
                return 500, api.error_payload("no dictionary", 500)
            return 200, server.config.dictionary.to_dict()
        if resource == "/neighbors":
            return 200, api.neighbors_payload(server.peers_summary())
        # /neighbors/<asn>/routes
        asn = int(match.group("asn"))
        if not server.has_peer(asn):
            return 404, api.error_payload(f"no neighbor AS{asn}", 404)
        filtered = query.get("filtered", ["0"])[0] in ("1", "true")
        routes = (server.filtered_routes(asn) if filtered
                  else server.accepted_routes(asn))
        return _routes_page(routes, query, functools.partial(
            api.routes_payload, filtered=filtered))

    def _handle_birdseye(self, match, query_text: str,
                         ) -> Tuple[int, Dict[str, object]]:
        """Serve the birdseye URL layout (BCIX-style deployments)."""
        key = (match.group("ixp"), int(match.group("family")))
        server = self.route_servers.get(key)
        if server is None:
            return 404, api.error_payload(
                f"no route server mounted at {key}", 404)
        resource = match.group("resource")
        if resource == "/protocols":
            return 200, dialects.birdseye_protocols(
                server.peers_summary())
        asn = int(match.group("asn"))
        if not server.has_peer(asn):
            return 404, api.error_payload(f"no protocol pb_{asn}", 404)
        return _routes_page(server.accepted_routes(asn),
                            parse_qs(query_text), dialects.birdseye_routes)

    # -- wire-level faults ----------------------------------------------

    def handle_bytes(self, path: str, fault: Optional[str] = None,
                     ) -> Tuple[int, bytes, Dict[str, str]]:
        """One GET rendered to wire bytes, with ``fault`` (drawn from
        the :class:`FaultSchedule` by the caller) applied: a scheduled
        outage answers 503 without touching the route servers, and a
        malformed response truncates the JSON body mid-document. A slow
        response has already waited on the loop before this is called.

        ``/metrics`` is the ops plane: it serves the process metrics in
        Prometheus text format and bypasses rate limiting and fault
        injection — a flaky LG must still be observable.
        """
        if urlparse(path).path == METRICS_PATH:
            text = obs.render_prometheus(obs.get_registry()) \
                if obs.enabled() else "# observability disabled\n"
            return 200, text.encode("utf-8"), {
                "Content-Type": obs.CONTENT_TYPE}
        if fault == FAULT_OUTAGE:
            body = json.dumps(
                api.error_payload("scheduled maintenance outage",
                                  503)).encode("utf-8")
            _METRICS().requests.labels("503").inc()
            return 503, body, {}
        status, payload = self.handle(path)
        body = json.dumps(payload).encode("utf-8")
        headers: Dict[str, str] = {}
        if status == 429:
            headers["Retry-After"] = f"{self.bucket.retry_after:.3f}"
        if fault == FAULT_MALFORMED and status == 200:
            body = body[:max(1, len(body) // 2)]
        _METRICS().requests.labels(str(status)).inc()
        return status, body, headers

    # -- HTTP plumbing ---------------------------------------------------

    @property
    def cap_rejections(self) -> int:
        """Connections refused by the cap fault mode (all mounts)."""
        return sum(self._ledger.rejections.values())

    @property
    def peak_connections(self) -> Dict[str, int]:
        """Highest concurrent connection count seen, per mount."""
        return dict(self._ledger.peak)

    @contextlib.contextmanager
    def _connection(self) -> Iterator[Respond]:
        """One connection's scope: closing it frees its cap slot."""
        conn_id = object()
        try:
            yield functools.partial(self._exchange, conn_id)
        finally:
            self._ledger.drop(conn_id)

    def _exchange(self, conn_id: object, request: Request,
                  answer: Answer) -> Generator[Any, Any, None]:
        """One request on the loop: the connection-cap fault mode, then
        the scheduled fault (a slow one waits on a loop timer), then
        :meth:`handle_bytes`. ``/metrics`` is neither capped nor
        faulted; a path outside every mount is not capped."""
        path = request.target
        target = urlparse(path).path
        mount = _MOUNT_PATTERN.match(target)
        if self.connection_cap is not None and mount is not None:
            name = f"{mount.group('ixp')}/v{mount.group('family')}"
            if not self._ledger.admit(conn_id, name, self.connection_cap):
                _METRICS().cap_rejections.labels(name).inc()
                _METRICS().requests.labels("503").inc()
                body = json.dumps(api.error_payload(
                    "connection limit exceeded", 503)).encode("utf-8")
                yield from answer(503, [("Content-Type", "application/json")],
                                  body, close=True)
                return
        faults = self.faults
        fault = None
        if faults is not None and target != METRICS_PATH:
            fault = faults.next_fault()
            if fault == FAULT_SLOW:
                yield from aio.sleep(faults.slow_delay)
        status, body, headers = self.handle_bytes(path, fault)
        headers.setdefault("Content-Type", "application/json")
        yield from answer(status, headers.items(), body)

    def start(self) -> str:
        """Start serving on an event-loop thread; returns the base URL."""
        if self._http is not None:
            raise RuntimeError("server already started")
        # A deep accept backlog: a fanned-out client opens its whole
        # connection budget in one burst, and a backlog of 5 (the
        # stdlib servers' default) drops the overflow SYNs — each
        # dropped one costs the kernel's ~1s retransmission before the
        # connect completes.
        sock = socket.create_server((self.host, self.port), backlog=128)
        self.port = sock.getsockname()[1]
        self._http = LoopHTTPServer(sock, self._connection)
        self._http.start()
        return self.base_url

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        if self._http is not None:
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
