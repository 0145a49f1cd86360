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

plus the ops-plane ``/metrics`` endpoint (Prometheus text format,
live when :func:`repro.obs.enable` has been called).
"""

from __future__ import annotations

import contextlib
import datetime as _dt
import json
import re
import threading
import time
import types
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Iterator, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .. import obs
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

_ROUTE_PATTERN = re.compile(
    r"^/(?P<ixp>[\w.-]+)/v(?P<family>[46])" + api.API_PREFIX
    + r"(?P<resource>/status|/config|/neighbors"
    + r"|/neighbors/(?P<asn>\d+)/routes)$")

#: birdseye URL layout: /<ixp>/v<family>/api/protocols and
#: /<ixp>/v<family>/api/routes/pb_<asn>
_BIRDSEYE_PATTERN = re.compile(
    r"^/(?P<ixp>[\w.-]+)/v(?P<family>[46])/api"
    r"(?P<resource>/protocols|/routes/pb_(?P<asn>\d+))$")

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
        self._mount_of: Dict[int, str] = {}
        self._count: Dict[str, int] = {}
        self.peak: Dict[str, int] = {}
        self.rejections: Dict[str, int] = {}

    def admit(self, conn_id: int, mount: str,
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

    def drop(self, conn_id: int) -> None:
        with self._lock:
            self._release_locked(conn_id)

    def _release_locked(self, conn_id: int) -> None:
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
                 dialect_overrides: Optional[Dict[str, str]] = None,
                 faults: Optional[FaultSchedule] = None,
                 connection_cap: Optional[int] = None,
                 ) -> None:
        self.route_servers = dict(route_servers)
        #: IXP key → dialect; alice unless overridden (e.g. BCIX runs
        #: birdseye). The server answers BOTH URL layouts regardless —
        #: this records which frontend an IXP nominally runs.
        self.dialects = dict(dialect_overrides or {})
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
        #: injectable so slow-response tests need not really stall.
        self.slow_sleep = time.sleep
        self.host = host
        self.port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- request handling (framework-free) ------------------------------

    def handle(self, path: str) -> Tuple[int, Dict[str, object]]:
        """Resolve one GET request path to (status, JSON payload).

        Pure function of server state — exercised directly by unit tests
        without sockets, and by the HTTP handler below.
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
        page = max(1, int(query.get("page", ["1"])[0]))
        page_size = min(api.MAX_PAGE_SIZE,
                        max(1, int(query.get("page_size",
                                             [str(api.DEFAULT_PAGE_SIZE)])[0])))
        routes = (server.filtered_routes(asn) if filtered
                  else server.accepted_routes(asn))
        routes.sort(key=lambda r: r.prefix)
        total = len(routes)
        start = (page - 1) * page_size
        page_routes = routes[start:start + page_size]
        return 200, api.routes_payload(
            page_routes, page, page_size, total, filtered)

    def _handle_birdseye(self, match, query_text: str,
                         ) -> Tuple[int, Dict[str, object]]:
        """Serve the birdseye URL layout (BCIX-style deployments)."""
        key = (match.group("ixp"), int(match.group("family")))
        server = self.route_servers.get(key)
        if server is None:
            return 404, api.error_payload(
                f"no route server mounted at {key}", 404)
        query = parse_qs(query_text)
        resource = match.group("resource")
        if resource == "/protocols":
            return 200, dialects.birdseye_protocols(
                server.peers_summary())
        asn = int(match.group("asn"))
        if not server.has_peer(asn):
            return 404, api.error_payload(f"no protocol pb_{asn}", 404)
        page = max(1, int(query.get("page", ["1"])[0]))
        page_size = min(api.MAX_PAGE_SIZE,
                        max(1, int(query.get("page_size",
                                             [str(api.DEFAULT_PAGE_SIZE)]
                                             )[0])))
        routes = server.accepted_routes(asn)
        routes.sort(key=lambda r: r.prefix)
        total = len(routes)
        start = (page - 1) * page_size
        return 200, dialects.birdseye_routes(
            routes[start:start + page_size], page, page_size, total)

    # -- wire-level faults ----------------------------------------------

    def handle_bytes(self, path: str) -> Tuple[int, bytes, Dict[str, str]]:
        """One GET rendered to wire bytes, with the fault schedule
        applied: scheduled outages answer 503 without touching the
        route servers, slow responses stall before answering, and
        malformed responses truncate the JSON body mid-document.

        ``/metrics`` is the ops plane: it serves the process metrics in
        Prometheus text format and bypasses rate limiting and fault
        injection — a flaky LG must still be observable.
        """
        if urlparse(path).path == METRICS_PATH:
            text = obs.render_prometheus(obs.get_registry()) \
                if obs.enabled() else "# observability disabled\n"
            return 200, text.encode("utf-8"), {
                "Content-Type": obs.CONTENT_TYPE}
        fault = self.faults.next_fault() if self.faults else None
        if fault == FAULT_OUTAGE:
            body = json.dumps(
                api.error_payload("scheduled maintenance outage",
                                  503)).encode("utf-8")
            _METRICS().requests.labels("503").inc()
            return 503, body, {}
        if fault == FAULT_SLOW:
            self.slow_sleep(self.faults.slow_delay)
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

    def _admit_connection(self, conn_id: int, path: str) -> bool:
        """Apply the connection-cap fault mode; True = serve."""
        if self.connection_cap is None:
            return True
        parsed = _MOUNT_PATTERN.match(urlparse(path).path)
        if parsed is None:
            return True  # /metrics and unroutable paths are uncapped
        mount = f"{parsed.group('ixp')}/v{parsed.group('family')}"
        if self._ledger.admit(conn_id, mount, self.connection_cap):
            return True
        _METRICS().cap_rejections.labels(mount).inc()
        return False

    def _make_handler(self):
        outer = self

        class Handler(BaseHTTPRequestHandler):
            # HTTP/1.1 so keep-alive is the default: the async
            # client's connection pool depends on it (every response
            # already carries Content-Length). urllib-based clients
            # still send "Connection: close" and get single-use
            # connections, exactly as before.
            protocol_version = "HTTP/1.1"
            #: an idle keep-alive connection is dropped after this —
            #: lingering handler threads must not outlive tests.
            timeout = 30.0
            #: headers and body are separate small writes; with Nagle
            #: on, the second waits out the client's delayed ACK
            #: (~40ms) on every keep-alive response.
            disable_nagle_algorithm = True

            def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
                if not outer._admit_connection(id(self.connection),
                                               self.path):
                    body = json.dumps(api.error_payload(
                        "connection limit exceeded", 503)).encode("utf-8")
                    _METRICS().requests.labels("503").inc()
                    self._answer(503, body, {"Connection": "close"})
                    self.close_connection = True
                    return
                status, body, headers = outer.handle_bytes(self.path)
                self._answer(status, body, headers)

            def _answer(self, status: int, body: bytes,
                        headers: Dict[str, str]) -> None:
                try:
                    self.send_response(status)
                    self.send_header(
                        "Content-Type",
                        headers.pop("Content-Type", "application/json"))
                    self.send_header("Content-Length", str(len(body)))
                    for name, value in headers.items():
                        self.send_header(name, value)
                    self.end_headers()
                    self.wfile.write(body)
                except (BrokenPipeError, ConnectionResetError):
                    # the client gave up (e.g. timed out during a
                    # scheduled slow response) — nothing to answer.
                    pass

            def finish(self) -> None:
                outer._ledger.drop(id(self.connection))
                super().finish()

            def log_message(self, fmt: str, *args: object) -> None:
                pass  # keep test output clean

        return Handler

    def start(self) -> str:
        """Start serving in a daemon thread; returns the base URL."""
        if self._httpd is not None:
            raise RuntimeError("server already started")
        # A deep accept backlog: a fanned-out client opens its whole
        # connection budget in one burst, and the socketserver default
        # of 5 drops the overflow SYNs — each dropped one costs the
        # kernel's ~1s retransmission before the connect completes.
        server_cls = type("_LGServer", (ThreadingHTTPServer,),
                          {"request_queue_size": 128})
        self._httpd = server_cls(
            (self.host, self.port), self._make_handler())
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        return self.base_url

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
            self._thread = None

    @contextlib.contextmanager
    def serve(self) -> Iterator[str]:
        """Context-manager form of start/stop."""
        url = self.start()
        try:
            yield url
        finally:
            self.stop()
