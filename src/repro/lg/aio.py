"""Event-driven Looking Glass client (:mod:`repro.net.aio`-based).

:class:`AsyncLookingGlassClient` preserves **every semantic** of the
thread-safe :class:`~repro.lg.client.LookingGlassClient` — the same
full-jitter retry schedule (:mod:`repro.net.backoff`), the same
``Retry-After`` honouring with cap, the same circuit breaker, the same
five-class failure taxonomy, the same :class:`ClientStats` buckets and
``repro_lg_client_*`` metrics — but replaces one-thread-per-waiting-
request with one selectors event loop per mount.

What that buys is *page-level* fan-out: the sync client fetches a
peer's pages serially inside ``client.routes``, so any engine whose
unit of concurrency is a whole peer tops out at one request in flight
per peer. This client fetches page 1, learns the page count, and fans
pages 2..N onto the loop alongside every other peer's pages — hundreds of concurrent slow fetches per process at near-zero
idle cost, bounded by two explicit limits:

* ``max_inflight`` — a semaphore over page fetches (one slot covers a
  fetch's whole retry/backoff lifetime), and
* ``max_connections`` — the hard per-mount cap handed to the
  keep-alive :class:`~repro.net.aio.ConnectionPool`; the paper's
  "single connection to the LG server, to avoid overloading it"
  discipline as a first-class limit (set both to 1 and the paper's
  serial behaviour falls out).

Loop- and pool-level health is metered under ``repro_lg_aio_*``
(open/opened connections, pool reuse, loop turn latency, in-flight
fetches) next to the shared ``repro_lg_client_*`` request metrics.

Not thread-safe: one thread drives a client's loop at a time. The
campaign keeps one async client per (ixp, family) mount, driven by the
thread running the campaign and closed when its run ends; the shared
``ClientStats``/breaker (borrowed from the sync client via
:meth:`from_client`) keep their locked discipline intact.
"""

from __future__ import annotations

import json
import random
import time
import types
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Iterator, List, Optional, Union

from .. import obs
from ..bgp.route import Route
from ..ixp.dictionary import CommunityDictionary
from ..net import aio
from . import api
from .breaker import CircuitBreaker
from .client import (
    ClientStats,
    CircuitOpenError,
    LookingGlassClient,
    LookingGlassError,
    MalformedPayloadError,
    OutageError,
    QueryTimeoutError,
    RateLimitedError,
    TransientError,
    parse_retry_after,
    _METRICS as _CLIENT_METRICS,
)

__all__ = ["AsyncLookingGlassClient"]

_METRICS = obs.MetricSet(lambda reg: types.SimpleNamespace(
    open_connections=reg.gauge(
        "repro_lg_aio_open_connections",
        "Live keep-alive connections held against the mount",
        ("ixp", "family")),
    connections_opened=reg.counter(
        "repro_lg_aio_connections_opened_total",
        "Connections the pool dialled", ("ixp", "family")),
    pool_reuse=reg.counter(
        "repro_lg_aio_pool_reuse_total",
        "Requests served over a reused keep-alive connection",
        ("ixp", "family")),
    inflight=reg.gauge(
        "repro_lg_aio_inflight_fetches",
        "Page fetches currently holding an inflight slot",
        ("ixp", "family")),
    loop_turn=reg.histogram(
        "repro_lg_aio_loop_turn_seconds",
        "Duration of one event-loop turn", ("ixp", "family")),
))


@dataclass
class AsyncLookingGlassClient:
    """LG client for one (ixp, family) mount on a selectors loop.

    The constructor mirrors :class:`LookingGlassClient` knob for knob,
    plus the two async bounds. URL layout, backoff arithmetic and the
    failure taxonomy are *reused* from the sync client (not copied):
    the unbound ``LookingGlassClient`` helpers are applied to this
    object, which carries the same attributes.
    """

    base_url: str
    ixp: str
    family: int
    dialect: str = "alice"
    max_retries: int = 5
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    retry_after_cap: float = 60.0
    timeout: float = 30.0
    page_retries: int = 1
    jitter: bool = True
    breaker: Optional[CircuitBreaker] = None
    #: page fetches in flight at once (each slot spans one fetch's
    #: whole retry/backoff lifetime).
    max_inflight: int = 32
    #: hard cap on open connections to the mount; None = match
    #: ``max_inflight`` (every in-flight fetch can hold a socket).
    max_connections: Optional[int] = None
    rng: random.Random = field(
        default_factory=lambda: random.Random(0x1C27))
    stats: ClientStats = field(default_factory=ClientStats)

    #: peak of the in-flight gauge over this client's lifetime — the
    #: honest "how much concurrency did we actually sustain" number
    #: benchmarks report.
    peak_inflight: int = field(default=0, init=False)
    inflight_fetches: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.max_inflight = max(1, int(self.max_inflight))
        cap = (self.max_inflight if self.max_connections is None
               else max(1, int(self.max_connections)))
        self.max_connections = cap
        self.loop = aio.EventLoop(on_turn=self._on_turn)
        self.pool = aio.ConnectionPool(
            max_per_host=cap,
            connect_timeout=self.timeout,
            on_open=self._on_open,
            on_reuse=self._on_reuse,
            on_close=self._on_close)
        self._sem = aio.Semaphore(self.max_inflight)

    @classmethod
    def from_client(cls, client: LookingGlassClient,
                    max_inflight: int = 32,
                    max_connections: Optional[int] = None,
                    ) -> "AsyncLookingGlassClient":
        """Wrap a sync client: shares its **stats and breaker**, so
        campaign-level accounting is engine-agnostic."""
        return cls(
            base_url=client.base_url, ixp=client.ixp,
            family=client.family, dialect=client.dialect,
            max_retries=client.max_retries,
            backoff_base=client.backoff_base,
            backoff_cap=client.backoff_cap,
            retry_after_cap=client.retry_after_cap,
            timeout=client.timeout, page_retries=client.page_retries,
            jitter=client.jitter, breaker=client.breaker,
            max_inflight=max_inflight, max_connections=max_connections,
            stats=client.stats)

    # -- observer hooks -------------------------------------------------

    @property
    def _mount_labels(self) -> tuple:
        return (self.ixp, str(self.family))

    def _on_turn(self, seconds: float) -> None:
        _METRICS().loop_turn.labels(*self._mount_labels).observe(seconds)

    def _on_open(self, _key: tuple) -> None:
        metrics = _METRICS()
        metrics.connections_opened.labels(*self._mount_labels).inc()
        metrics.open_connections.labels(*self._mount_labels).inc()

    def _on_reuse(self, _key: tuple) -> None:
        _METRICS().pool_reuse.labels(*self._mount_labels).inc()

    def _on_close(self, _key: tuple) -> None:
        _METRICS().open_connections.labels(*self._mount_labels).dec()

    # -- reused sync-client helpers ------------------------------------

    def _url(self, resource: str) -> str:
        return LookingGlassClient._url(self, resource)

    def _page_url(self, asn: int, filtered: bool, page: int,
                  page_size: int) -> str:
        return LookingGlassClient._page_url(self, asn, filtered, page,
                                            page_size)

    def _backoff_delay(self, attempt: int) -> float:
        return LookingGlassClient._backoff_delay(self, attempt)

    def _record(self, success: bool) -> None:
        LookingGlassClient._record(self, success)

    # -- the retry loop, as a coroutine --------------------------------

    def _get_raw_coro(self, url: str,
                      ) -> Generator[Any, Any, Dict[str, Any]]:
        """Mirror of ``LookingGlassClient._get_raw``: same attempts,
        same taxonomy, same stats/metrics — waits go through the loop
        (timers for backoff, selector for sockets) instead of blocking
        the thread."""
        metrics = _CLIENT_METRICS()
        mount = self._mount_labels
        if self.breaker is not None and not self.breaker.allow():
            raise CircuitOpenError(
                f"GET {url} refused: circuit open for "
                f"{self.ixp}/v{self.family} "
                f"({self.breaker.seconds_until_probe:.1f}s until probe)")
        last_error: Optional[str] = None
        error_type = OutageError
        started = time.perf_counter()
        for attempt in range(self.max_retries + 1):
            self.stats.incr("requests")
            metrics.requests.labels(*mount).inc()
            delay: float
            response: Optional[aio.HTTPResponse] = None
            try:
                response = yield from aio.http_request(
                    self.pool, "GET", url, timeout=self.timeout)
            except aio.IOTimeout:
                self.stats.incr("timeouts")
                metrics.errors.labels(*mount, "timeout").inc()
                error_type = QueryTimeoutError
                last_error = f"timed out after {self.timeout}s"
                delay = self._backoff_delay(attempt)
            except aio.ProtocolError as error:
                self.stats.incr("malformed")
                metrics.errors.labels(*mount, "malformed").inc()
                error_type = MalformedPayloadError
                last_error = f"malformed HTTP ({error})"
                delay = self._backoff_delay(attempt)
            except OSError as error:
                # ConnectionClosed, refused, unreachable, ...
                metrics.errors.labels(*mount, "connection").inc()
                error_type = OutageError
                last_error = str(error)
                delay = self._backoff_delay(attempt)
            if response is not None:
                status = response.status
                if status == 429:
                    self.stats.incr("rate_limited")
                    metrics.errors.labels(*mount, "rate_limited").inc()
                    error_type = RateLimitedError
                    retry_after = parse_retry_after(
                        response.header("retry-after"))
                    if retry_after is not None:
                        metrics.retry_after.labels(*mount).inc()
                        delay = min(self.retry_after_cap,
                                    max(retry_after, 0.01))
                    else:
                        delay = self._backoff_delay(attempt)
                    last_error = "HTTP 429"
                elif 500 <= status < 600:
                    self.stats.incr("server_errors")
                    metrics.errors.labels(*mount, "server_error").inc()
                    error_type = OutageError
                    delay = self._backoff_delay(attempt)
                    last_error = f"HTTP {status}"
                elif status != 200:
                    # definitive 4xx-style answer: the LG is alive.
                    self._record(success=True)
                    self.stats.incr("http_4xx")
                    metrics.errors.labels(*mount, "http_4xx").inc()
                    raise LookingGlassError(
                        f"GET {url} failed: HTTP {status}")
                else:
                    try:
                        payload = json.loads(response.body)
                    except ValueError as error:
                        self.stats.incr("malformed")
                        metrics.errors.labels(*mount, "malformed").inc()
                        error_type = MalformedPayloadError
                        last_error = f"malformed JSON ({error})"
                        delay = self._backoff_delay(attempt)
                    else:
                        self._record(success=True)
                        metrics.fetch.labels(*mount).observe(
                            time.perf_counter() - started)
                        return payload
            if attempt < self.max_retries:
                self.stats.incr("retries")
                metrics.retries.labels(*mount).inc()
                metrics.backoff.labels(*mount).inc(delay)
                yield from aio.sleep(delay)
        self._record(success=False)
        metrics.exhausted.labels(*mount, error_type.failure_class).inc()
        raise error_type(
            f"GET {url} failed after {self.max_retries + 1} attempts "
            f"({last_error})")

    def _fetch_page_coro(self, asn: int, filtered: bool, page: int,
                         page_size: int,
                         ) -> Generator[Any, Any, Dict[str, Any]]:
        """Page-level retry with a fresh ``_get_raw`` budget per
        attempt — the ``LookingGlassClient._fetch_page`` contract."""
        attempts = max(0, self.page_retries) + 1
        for attempt in range(attempts):
            try:
                return (yield from self._get_raw_coro(
                    self._page_url(asn, filtered, page, page_size)))
            except CircuitOpenError:
                raise  # the mount is down; local retries are pointless
            except TransientError:
                if attempt == attempts - 1:
                    raise
        raise AssertionError("unreachable")

    def _guarded_page(self, asn: int, filtered: bool, page: int,
                      page_size: int,
                      ) -> Generator[Any, Any, Dict[str, Any]]:
        """One page fetch under the in-flight semaphore: the slot spans
        the fetch's whole retry/backoff lifetime."""
        yield from self._sem.acquire()
        metrics = _METRICS()
        self.inflight_fetches += 1
        self.peak_inflight = max(self.peak_inflight,
                                 self.inflight_fetches)
        metrics.inflight.labels(*self._mount_labels).inc()
        try:
            return (yield from self._fetch_page_coro(
                asn, filtered, page, page_size))
        finally:
            self.inflight_fetches -= 1
            metrics.inflight.labels(*self._mount_labels).dec()
            self._sem.release()

    # -- peer-level fan-out --------------------------------------------

    def peer_routes_coro(self, asn: int, filtered: bool = False,
                         page_size: int = api.DEFAULT_PAGE_SIZE,
                         ) -> Generator[Any, Any, List[Route]]:
        """All routes of one neighbor. Page 1 reveals the page count;
        pages 2..N then fan out as sibling tasks (each bounded by the
        shared semaphore) and are **reassembled in page order**, so the
        route list is byte-for-byte the serial pagination's."""
        from . import dialects
        first = yield from self._guarded_page(asn, filtered, 1,
                                              page_size)
        routes = list(dialects.parse_routes(first, self.dialect))
        pages = dialects.total_pages(first, self.dialect)
        if pages <= 1:
            return routes
        tasks = [
            self.loop.spawn(
                self._guarded_page(asn, filtered, page, page_size),
                name=f"page:{asn}:{page}")
            for page in range(2, pages + 1)]
        for task in tasks:
            yield from aio.join(task)
        for task in tasks:  # report the lowest failing page's error
            if task.error is not None:
                raise task.error
        for task in tasks:
            routes.extend(dialects.parse_routes(task.result,
                                                self.dialect))
        return routes

    def _peer_outcome_coro(self, asn: int, filtered: bool,
                           page_size: int,
                           ) -> Generator[Any, Any,
                                          Union[List[Route],
                                                LookingGlassError]]:
        """Outcome form of :meth:`peer_routes_coro` — returns the typed
        error instead of raising, so a fan-out over many peers never
        aborts siblings."""
        try:
            return (yield from self.peer_routes_coro(asn, filtered,
                                                     page_size))
        except LookingGlassError as error:
            return error

    def fetch_peers(self, neighbors: List[api.NeighborSummary],
                    filtered: bool = False,
                    page_size: int = api.DEFAULT_PAGE_SIZE,
                    ) -> Dict[int, Union[List[Route],
                                         LookingGlassError]]:
        """Fan every peer's paginated fetch onto one loop; returns
        outcomes keyed by ASN (routes, or the typed error that lost the
        peer). Reassembly order is the caller's business — results are
        deterministic per ASN regardless of completion order."""
        tasks = {
            neighbor.asn: self.loop.spawn(
                self._peer_outcome_coro(neighbor.asn, filtered,
                                        page_size),
                name=f"peer:{neighbor.asn}")
            for neighbor in neighbors}
        pending = set(tasks)
        while pending:
            if self.loop.idle:
                raise RuntimeError(
                    "async fetch stalled with peers pending")
            self.loop.run_once()
            pending = {asn for asn in pending if not tasks[asn].done}
        outcomes: Dict[int, Union[List[Route], LookingGlassError]] = {}
        for asn, task in tasks.items():
            if task.error is not None:
                raise task.error  # bug, not a taxonomy failure
            outcomes[asn] = task.result
        return outcomes

    # -- sync endpoint wrappers (LookingGlassClient parity) ------------

    def _run(self, coro: Generator, name: str) -> Any:
        return self.loop.run_until_complete(self.loop.spawn(coro, name))

    def _get(self, resource: str) -> Dict[str, Any]:
        return self._run(self._get_raw_coro(self._url(resource)),
                         f"get:{resource}")

    def status(self) -> Dict[str, Any]:
        return self._get("/status")

    def config_dictionary(self) -> CommunityDictionary:
        return CommunityDictionary.from_dict(self._get("/config"))

    def neighbors(self) -> List[api.NeighborSummary]:
        from . import dialects
        if self.dialect == dialects.DIALECT_BIRDSEYE:
            payload = self._run(self._get_raw_coro(
                f"{self.base_url}/{self.ixp}/v{self.family}"
                "/api/protocols"), "neighbors")
        else:
            payload = self._get("/neighbors")
        return dialects.parse_neighbors(payload, self.dialect)

    def routes(self, asn: int, filtered: bool = False,
               page_size: int = api.DEFAULT_PAGE_SIZE,
               ) -> Iterator[Route]:
        return iter(self._run(
            self.peer_routes_coro(asn, filtered, page_size),
            f"routes:{asn}"))

    def all_routes(self, filtered: bool = False) -> List[Route]:
        established = [n for n in self.neighbors() if n.established]
        outcomes = self.fetch_peers(established, filtered=filtered)
        routes: List[Route] = []
        for neighbor in established:
            outcome = outcomes[neighbor.asn]
            if isinstance(outcome, LookingGlassError):
                raise outcome
            routes.extend(outcome)
        return routes

    def close(self) -> None:
        """Cancel in-flight fetches, then drop every pooled connection
        and the selector."""
        self.loop.close()
        self.pool.close_all()
