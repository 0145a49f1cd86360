"""Looking Glass HTTP client.

Consumes the :mod:`repro.lg.api` endpoints with the robustness the
paper's collection needed (§3): retry with full-jitter exponential
backoff on 5xx/timeouts/garbled payloads, honouring ``Retry-After`` on
429, page-level retry, and a per-mount circuit breaker so a dead LG is
not hammered through every retry budget.

All of it is one coroutine core on a :mod:`repro.net.aio` selectors
loop. Each client owns one loop and one keep-alive connection pool,
bounded by two limits:

* ``max_inflight`` — a semaphore over page fetches (one slot covers a
  fetch's whole retry/backoff lifetime), and
* ``max_connections`` — the hard per-mount cap handed to the pool.

Both default to 1: the paper's "single connection to the LG server, to
avoid overloading it". Raised, a peer's pages 2..N fan out beside every
other peer's and reassemble in page order, so what is collected does
not depend on the bound.

The blocking methods (:meth:`~LookingGlassClient.status`,
``config_dictionary``, ``neighbors``, ``routes``, ``all_routes``) each
run one coroutine on the client's loop and close the pool's idle
connections before returning, so a blocking call leaves no socket open.
The collection campaign (:mod:`repro.collector.campaign`) instead
drives the loop itself and spawns :meth:`~LookingGlassClient.peer_routes_coro`
per peer.

Failures that survive the retry budget are raised as subclasses of
:class:`LookingGlassError` carrying a ``failure_class`` from the
campaign taxonomy (``rate_limited`` / ``lg_outage`` / ``timeout`` /
``malformed_payload`` / ``breaker_open``), so the collection layer can
count *why* peers were lost, not just that they were. Transport faults
map into it too: a connection the LG closes or resets is an
``lg_outage``, bytes that do not frame as HTTP/1.1 are
``malformed_payload``.

Every request is metered through :mod:`repro.obs` under
``repro_lg_client_*`` (requests, retries, per-kind errors, Retry-After
hits, backoff sleep time, fetch latency) and ``repro_lg_aio_*``
(connections, pool reuse, loop turn latency, in-flight fetches) —
free no-ops unless observability is enabled.

Not thread-safe: one thread drives a client's loop at a time.
"""

from __future__ import annotations

import json
import math
import random
import threading
import time
import types
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Generator, Iterator, List,
                    Optional, Sequence, Union)

from .. import obs
from ..bgp.route import Route
from ..ixp.dictionary import CommunityDictionary
from ..net import aio
from ..net.backoff import full_jitter_delay
from . import api
from .breaker import CircuitBreaker

#: the §3 failure taxonomy surfaced in campaign reports.
FAILURE_RATE_LIMITED = "rate_limited"
FAILURE_LG_OUTAGE = "lg_outage"
FAILURE_TIMEOUT = "timeout"
FAILURE_MALFORMED = "malformed_payload"
#: refused locally because the mount's circuit breaker was open — a
#: distinct class (not an LG outage observation: no request was made).
FAILURE_BREAKER_OPEN = "breaker_open"
FAILURE_CLASSES = (FAILURE_RATE_LIMITED, FAILURE_LG_OUTAGE,
                   FAILURE_TIMEOUT, FAILURE_MALFORMED,
                   FAILURE_BREAKER_OPEN)

_METRICS = obs.MetricSet(lambda reg: types.SimpleNamespace(
    requests=reg.counter(
        "repro_lg_client_requests_total",
        "HTTP requests issued by the LG client", ("ixp", "family")),
    retries=reg.counter(
        "repro_lg_client_retries_total",
        "Request attempts retried after a transient failure",
        ("ixp", "family")),
    errors=reg.counter(
        "repro_lg_client_errors_total",
        "Request-level failures by kind",
        ("ixp", "family", "kind")),
    retry_after=reg.counter(
        "repro_lg_client_retry_after_total",
        "429 responses whose Retry-After header was honoured",
        ("ixp", "family")),
    backoff=reg.counter(
        "repro_lg_client_backoff_seconds_total",
        "Seconds spent sleeping between retries", ("ixp", "family")),
    fetch=reg.histogram(
        "repro_lg_client_fetch_seconds",
        "Latency of one successful page/endpoint fetch "
        "(including its internal retries)", ("ixp", "family")),
    exhausted=reg.counter(
        "repro_lg_client_exhausted_total",
        "Fetches abandoned with the whole retry budget spent, "
        "by failure class", ("ixp", "family", "class")),
))

_AIO_METRICS = obs.MetricSet(lambda reg: types.SimpleNamespace(
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


#: the ClientStats bucket of each retried failure kind (a lost
#: connection has none: it counts only as a request).
_STATS_BUCKETS = {"timeout": "timeouts", "malformed": "malformed",
                  "rate_limited": "rate_limited",
                  "server_error": "server_errors"}


def parse_retry_after(value: Optional[str]) -> Optional[float]:
    """Parse a ``Retry-After`` header into seconds, or None.

    RFC 9110 allows both delta-seconds and an HTTP-date. Only the
    numeric form is honoured (a non-negative float); an HTTP-date —
    or any garbage — returns None so the caller falls back to its own
    backoff schedule instead of crashing mid-retry-loop (computing a
    delta from a server-supplied wall-clock date would import the
    server's clock skew into our sleep).
    """
    if value is None:
        return None
    try:
        seconds = float(value.strip())
    except ValueError:
        return None
    if not math.isfinite(seconds) or seconds < 0:
        return None
    return seconds


class LookingGlassError(Exception):
    """The LG could not be queried (after retries)."""

    #: which bucket of the failure taxonomy this error falls in.
    failure_class = FAILURE_LG_OUTAGE


class TransientError(LookingGlassError):
    """A failure worth retrying at a higher level (page / peer)."""


class RateLimitedError(TransientError):
    """HTTP 429 persisted through the whole retry budget."""

    failure_class = FAILURE_RATE_LIMITED


class OutageError(TransientError):
    """5xx or connection-level failure persisted through retries."""

    failure_class = FAILURE_LG_OUTAGE


class QueryTimeoutError(TransientError):
    """The LG kept exceeding the request timeout."""

    failure_class = FAILURE_TIMEOUT


class MalformedPayloadError(TransientError):
    """The LG kept returning truncated/undecodable JSON."""

    failure_class = FAILURE_MALFORMED


class CircuitOpenError(LookingGlassError):
    """Refused locally: the mount's circuit breaker is open."""

    failure_class = FAILURE_BREAKER_OPEN


@dataclass
class ClientStats:
    """Counters for observability and tests.

    Thread-safe: ``n += 1`` on an attribute is a read-modify-write
    that can lose updates under preemption, so all bumps go through
    :meth:`incr`.
    """

    requests: int = 0
    retries: int = 0
    rate_limited: int = 0
    server_errors: int = 0
    timeouts: int = 0
    #: attempts whose HTTP framing or body could not be decoded (a bad
    #: status line, header or chunk size; a body that is not JSON),
    #: retried like the buckets above. A decoded body of the wrong
    #: shape is not a request failure: it fails the peer or target in
    #: the dialect translators and is counted there, as a
    #: ``malformed_payload`` outcome.
    malformed: int = 0
    #: definitive 4xx answers — "the LG said no", as opposed to the
    #: transport-loss buckets above (campaign reports distinguish them).
    http_4xx: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def incr(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)


@dataclass
class LookingGlassClient:
    """LG client for one (ixp, family) mount.

    ``dialect`` selects the remote API flavour ("alice" default, or
    "birdseye"); responses are normalised to the common types either
    way — the Periscope-style unification the paper's scraping needed.
    The jitter rng is only consulted for backoff delays, never for
    payload content, so request interleavings cannot change *what* is
    collected.
    """

    base_url: str
    ixp: str
    family: int
    dialect: str = "alice"
    max_retries: int = 5
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: upper bound on a server-requested Retry-After wait. The server's
    #: word is honoured (unlike backoff_cap, which only bounds our own
    #: exponential schedule) but a hostile/buggy header can't stall the
    #: campaign for an hour.
    retry_after_cap: float = 60.0
    #: I/O timeout per connect/send/receive wait, seconds.
    timeout: float = 30.0
    #: extra whole-page retries after one page's own retry budget is
    #: spent — one lost page must not discard a peer.
    page_retries: int = 1
    #: full-jitter backoff (AWS-style); disable for exact-delay tests.
    jitter: bool = True
    #: optional per-mount circuit breaker (campaigns install one).
    breaker: Optional[CircuitBreaker] = None
    #: how backoff waits pass: None = loop timers (other fetches run
    #: meanwhile); a callable is called with the exact delay instead,
    #: so tests run instantly or on a fake clock.
    sleep: Optional[Callable[[float], None]] = None
    #: page fetches in flight at once (each slot spans one fetch's
    #: whole retry/backoff lifetime).
    max_inflight: int = 1
    #: hard cap on open connections to the mount; None = match
    #: ``max_inflight`` (every in-flight fetch can hold a socket).
    max_connections: Optional[int] = None
    #: rng for jitter — seeded so reruns are reproducible.
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
        self.max_connections = (
            self.max_inflight if self.max_connections is None
            else max(1, int(self.max_connections)))
        self.loop = aio.EventLoop(on_turn=self._on_turn, sleep=self.sleep)
        self.pool = aio.ConnectionPool(
            max_per_host=self.max_connections,
            connect_timeout=self.timeout,
            on_open=self._on_open,
            on_reuse=self._on_reuse,
            on_close=self._on_close)
        self._sem = aio.Semaphore(self.max_inflight)

    @property
    def _mount_labels(self) -> tuple:
        return (self.ixp, str(self.family))

    # -- loop and pool observer hooks ---------------------------------------

    def _on_turn(self, seconds: float) -> None:
        _AIO_METRICS().loop_turn.labels(*self._mount_labels).observe(
            seconds)

    def _on_open(self, _key: tuple) -> None:
        metrics = _AIO_METRICS()
        metrics.connections_opened.labels(*self._mount_labels).inc()
        metrics.open_connections.labels(*self._mount_labels).inc()

    def _on_reuse(self, _key: tuple) -> None:
        _AIO_METRICS().pool_reuse.labels(*self._mount_labels).inc()

    def _on_close(self, _key: tuple) -> None:
        _AIO_METRICS().open_connections.labels(*self._mount_labels).dec()

    # -- URLs, backoff and breaker -------------------------------------------

    def _url(self, resource: str) -> str:
        return (f"{self.base_url}/{self.ixp}/v{self.family}"
                f"{api.API_PREFIX}{resource}")

    def _neighbors_url(self) -> str:
        from . import dialects
        if self.dialect == dialects.DIALECT_BIRDSEYE:
            return (f"{self.base_url}/{self.ixp}/v{self.family}"
                    "/api/protocols")
        return self._url("/neighbors")

    def _page_url(self, asn: int, filtered: bool, page: int,
                  page_size: int) -> str:
        from . import dialects
        if self.dialect == dialects.DIALECT_BIRDSEYE:
            if filtered:
                raise LookingGlassError(
                    "the birdseye dialect does not expose the "
                    "filtered route set")
            return (f"{self.base_url}/{self.ixp}/v{self.family}"
                    f"/api/routes/pb_{asn}?page={page}"
                    f"&page_size={page_size}")
        query = f"/neighbors/{asn}/routes?page={page}" \
                f"&page_size={page_size}"
        if filtered:
            query += "&filtered=1"
        return self._url(query)

    def _backoff_delay(self, attempt: int) -> float:
        return full_jitter_delay(attempt, self.backoff_base,
                                 self.backoff_cap, self.rng, self.jitter)

    def _record(self, success: bool) -> None:
        if self.breaker is None:
            return
        if success:
            self.breaker.record_success()
        else:
            self.breaker.record_failure()

    # -- the retry ladder -------------------------------------------------

    def _get_raw_coro(self, url: str,
                      ) -> Generator[Any, Any, Dict[str, Any]]:
        """GET ``url`` with retries; returns the decoded JSON or raises
        a :class:`LookingGlassError` once the budget is spent. Waits go
        through the loop (timers or the injected ``sleep`` for backoff,
        the selector for sockets)."""
        metrics = _METRICS()
        mount = self._mount_labels
        if self.breaker is not None and not self.breaker.allow():
            raise CircuitOpenError(
                f"GET {url} refused: circuit open for "
                f"{self.ixp}/v{self.family} "
                f"({self.breaker.seconds_until_probe:.1f}s until probe)")
        last_error: Optional[str] = None
        error_type: type = OutageError
        started = time.perf_counter()
        for attempt in range(self.max_retries + 1):
            self.stats.incr("requests")
            metrics.requests.labels(*mount).inc()
            # a failed attempt sets its error-metric ``kind``; a 429
            # may also set ``delay``.
            delay: Optional[float] = None
            try:
                response = yield from aio.http_request(
                    self.pool, "GET", url, timeout=self.timeout)
            except aio.IOTimeout:
                error_type, kind = QueryTimeoutError, "timeout"
                last_error = f"timed out after {self.timeout}s"
            except aio.ProtocolError as error:
                error_type, kind = MalformedPayloadError, "malformed"
                last_error = f"malformed HTTP ({error})"
            except OSError as error:
                # ConnectionClosed, refused, reset, unreachable, ...
                error_type, kind = OutageError, "connection"
                last_error = str(error)
            else:
                status = response.status
                if status == 429:
                    error_type, kind = RateLimitedError, "rate_limited"
                    last_error = "HTTP 429"
                    retry_after = parse_retry_after(
                        response.header("retry-after"))
                    # absent, HTTP-date, or garbage header: our own
                    # backoff schedule decides the wait.
                    if retry_after is not None:
                        metrics.retry_after.labels(*mount).inc()
                        delay = min(self.retry_after_cap,
                                    max(retry_after, 0.01))
                elif 500 <= status < 600:
                    error_type, kind = OutageError, "server_error"
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
                        error_type, kind = MalformedPayloadError, \
                            "malformed"
                        last_error = f"malformed JSON ({error})"
                    else:
                        self._record(success=True)
                        metrics.fetch.labels(*mount).observe(
                            time.perf_counter() - started)
                        return payload
            if kind in _STATS_BUCKETS:
                self.stats.incr(_STATS_BUCKETS[kind])
            metrics.errors.labels(*mount, kind).inc()
            if delay is None:
                delay = self._backoff_delay(attempt)
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
        """One routes page, with page-level retry on transient failure
        (a fresh retry budget per attempt) so a single lost page does
        not discard the peer's whole pagination."""
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
                      page_size: int, lost: Optional[List[int]] = None,
                      ) -> Generator[Any, Any, Optional[Dict[str, Any]]]:
        """One page fetch under the in-flight semaphore: the slot spans
        the fetch's whole retry/backoff lifetime. ``lost`` is shared by
        a peer's sibling pages: a page that fails records itself there,
        and a page that gets its slot after that returns None unfetched
        — the peer is lost either way, so at one slot the requests are
        exactly those of fetching the pages one after another."""
        yield from self._sem.acquire()
        if lost:
            self._sem.release()
            return None
        metrics = _AIO_METRICS()
        self.inflight_fetches += 1
        self.peak_inflight = max(self.peak_inflight,
                                 self.inflight_fetches)
        metrics.inflight.labels(*self._mount_labels).inc()
        try:
            return (yield from self._fetch_page_coro(
                asn, filtered, page, page_size))
        except LookingGlassError:
            if lost is not None:
                lost.append(page)
            raise
        finally:
            self.inflight_fetches -= 1
            metrics.inflight.labels(*self._mount_labels).dec()
            self._sem.release()

    def peer_routes_coro(self, asn: int, filtered: bool = False,
                         page_size: int = api.DEFAULT_PAGE_SIZE,
                         ) -> Generator[Any, Any, List[Route]]:
        """All routes of one neighbor. Page 1 reveals the page count;
        pages 2..N then fan out as sibling tasks (each bounded by the
        shared semaphore) and are **reassembled in page order**, so the
        route list does not depend on ``max_inflight``."""
        from . import dialects
        first = yield from self._guarded_page(asn, filtered, 1,
                                              page_size)
        routes = list(dialects.parse_routes(first, self.dialect))
        pages = dialects.total_pages(first, self.dialect)
        if pages <= 1:
            return routes
        lost: List[int] = []
        tasks = [
            self.loop.spawn(
                self._guarded_page(asn, filtered, page, page_size, lost),
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

    def neighbors_coro(self,
                       ) -> Generator[Any, Any, List[api.NeighborSummary]]:
        """The mount's neighbor list (dialect-aware)."""
        from . import dialects
        payload = yield from self._get_raw_coro(self._neighbors_url())
        return dialects.parse_neighbors(payload, self.dialect)

    # -- blocking methods ---------------------------------------------------

    def run(self, coro: Generator, name: str) -> Any:
        """Run one coroutine to completion on the client's loop. The
        pool's idle connections are closed before returning, so a
        blocking call leaves no socket open."""
        try:
            return self.loop.run_until_complete(
                self.loop.spawn(coro, name))
        finally:
            self.pool.close_all()

    def _get(self, resource: str) -> Dict[str, Any]:
        return self.run(self._get_raw_coro(self._url(resource)),
                        f"get:{resource}")

    def status(self) -> Dict[str, Any]:
        return self._get("/status")

    def config_dictionary(self) -> CommunityDictionary:
        """The RS-config half of the paper's dictionary (§3)."""
        return CommunityDictionary.from_dict(self._get("/config"))

    def neighbors(self) -> List[api.NeighborSummary]:
        return self.run(self.neighbors_coro(), "neighbors")

    def routes(self, asn: int, filtered: bool = False,
               page_size: int = api.DEFAULT_PAGE_SIZE) -> Iterator[Route]:
        """All (accepted or filtered) routes of one neighbor, following
        pagination (dialect-aware)."""
        return iter(self.run(
            self.peer_routes_coro(asn, filtered, page_size),
            f"routes:{asn}"))

    def fetch_peers(self, neighbors: Sequence[api.NeighborSummary],
                    filtered: bool = False,
                    page_size: int = api.DEFAULT_PAGE_SIZE,
                    ) -> Dict[int, Union[List[Route],
                                         LookingGlassError]]:
        """Fan every peer's paginated fetch onto the loop; returns
        outcomes keyed by ASN (routes, or the typed error that lost the
        peer), the same whatever order the fetches complete in."""
        def outcome(asn: int) -> Generator[
                Any, Any, Union[List[Route], LookingGlassError]]:
            try:
                return (yield from self.peer_routes_coro(
                    asn, filtered, page_size))
            except LookingGlassError as error:
                return error

        def fan_out() -> Generator[Any, Any, Dict[int, Any]]:
            tasks = {neighbor.asn: self.loop.spawn(
                         outcome(neighbor.asn), name=f"peer:{neighbor.asn}")
                     for neighbor in neighbors}
            for task in tasks.values():
                yield from aio.join(task)
            for task in tasks.values():
                if task.error is not None:
                    raise task.error  # a bug, not a taxonomy failure
            return {asn: task.result for asn, task in tasks.items()}

        return self.run(fan_out(), "fetch_peers")

    def all_routes(self, filtered: bool = False) -> List[Route]:
        """Accepted (or filtered) routes of every established neighbor —
        the paper's §3 procedure ("for each peer, we collect all the
        accepted routes")."""
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
        and the selector. Stats stay readable."""
        self.loop.close()
        self.pool.close_all()
