"""Looking Glass HTTP client.

Consumes the :mod:`repro.lg.api` endpoints with the robustness the
paper's collection needed (§3): retry with full-jitter exponential
backoff on 5xx/timeouts/garbled payloads, honouring ``Retry-After`` on
429, and a per-mount circuit breaker so a dead LG is not hammered
through every retry budget. The paper's collection kept "a single
connection to the LG server, to avoid overloading it"; this client
defaults to the same serial discipline but is **thread-safe** — the
concurrent collection engine (:mod:`repro.collector.campaign`) shares
one client per mount across a bounded worker pool, and the shared
state (stats counters, breaker, metric children) is lock-protected.

Failures that survive the retry budget are raised as subclasses of
:class:`LookingGlassError` carrying a ``failure_class`` from the
campaign taxonomy (``rate_limited`` / ``lg_outage`` / ``timeout`` /
``malformed_payload`` / ``breaker_open``), so the collection layer can
count *why* peers were lost, not just that they were.

Every request is also metered through :mod:`repro.obs` (requests,
retries, per-kind errors, Retry-After hits, backoff sleep time, fetch
latency) under ``repro_lg_client_*`` — free no-ops unless
observability is enabled.
"""

from __future__ import annotations

import json
import math
import random
import socket
import threading
import time
import types
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from .. import obs
from ..bgp.route import Route
from ..ixp.dictionary import CommunityDictionary
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

    Thread-safe: the concurrent collection engine shares one client
    (and so one stats object) across a worker pool, and ``n += 1`` on
    an attribute is a read-modify-write that can lose updates under
    preemption — all bumps go through :meth:`incr`.
    """

    requests: int = 0
    retries: int = 0
    rate_limited: int = 0
    server_errors: int = 0
    timeouts: int = 0
    #: attempts whose body was not valid JSON (retried like the buckets
    #: above). A decoded body of the wrong shape is not a request
    #: failure: it fails the peer or target in the dialect translators
    #: and is counted there, as a ``malformed_payload`` outcome.
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

    Safe to share across collection workers: stats bumps are locked,
    the breaker serialises its own transitions, and the jitter rng is
    only consulted for backoff delays (never for payload content), so
    concurrent interleavings cannot change *what* is collected.
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
    #: socket timeout per request, seconds.
    timeout: float = 30.0
    #: extra whole-page retries in :meth:`routes` after ``_get_raw``'s
    #: own budget is spent — one lost page must not discard a peer.
    page_retries: int = 1
    #: full-jitter backoff (AWS-style); disable for exact-delay tests.
    jitter: bool = True
    #: optional per-mount circuit breaker (campaigns install one).
    breaker: Optional[CircuitBreaker] = None
    #: sleep function — injectable so tests run instantly.
    sleep: Any = time.sleep
    #: rng for jitter — seeded so reruns are reproducible.
    rng: random.Random = field(
        default_factory=lambda: random.Random(0x1C27))
    stats: ClientStats = field(default_factory=ClientStats)

    def _url(self, resource: str) -> str:
        return (f"{self.base_url}/{self.ixp}/v{self.family}"
                f"{api.API_PREFIX}{resource}")

    def _get(self, resource: str) -> Dict[str, Any]:
        """GET with retries; raises LookingGlassError when exhausted."""
        return self._get_raw(self._url(resource))

    def _backoff_delay(self, attempt: int) -> float:
        return full_jitter_delay(attempt, self.backoff_base,
                                 self.backoff_cap, self.rng, self.jitter)

    @property
    def _mount_labels(self) -> tuple:
        return (self.ixp, str(self.family))

    def _get_raw(self, url: str) -> Dict[str, Any]:
        metrics = _METRICS()
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
            try:
                with urllib.request.urlopen(
                        url, timeout=self.timeout) as response:
                    body = response.read()
            except urllib.error.HTTPError as error:
                if error.code == 429:
                    self.stats.incr("rate_limited")
                    metrics.errors.labels(*mount, "rate_limited").inc()
                    error_type = RateLimitedError
                    retry_after = parse_retry_after(
                        error.headers.get("Retry-After"))
                    if retry_after is not None:
                        metrics.retry_after.labels(*mount).inc()
                        delay = min(self.retry_after_cap,
                                    max(retry_after, 0.01))
                    else:
                        # absent, HTTP-date, or garbage header: our own
                        # backoff schedule decides the wait.
                        delay = self._backoff_delay(attempt)
                elif 500 <= error.code < 600:
                    self.stats.incr("server_errors")
                    metrics.errors.labels(*mount, "server_error").inc()
                    error_type = OutageError
                    delay = self._backoff_delay(attempt)
                else:
                    # 4xx: the LG is alive and answered definitively.
                    self._record(success=True)
                    self.stats.incr("http_4xx")
                    metrics.errors.labels(*mount, "http_4xx").inc()
                    raise LookingGlassError(
                        f"GET {url} failed: HTTP {error.code}") from error
                last_error = f"HTTP {error.code}"
            except (socket.timeout, TimeoutError):
                self.stats.incr("timeouts")
                metrics.errors.labels(*mount, "timeout").inc()
                error_type = QueryTimeoutError
                last_error = f"timed out after {self.timeout}s"
                delay = self._backoff_delay(attempt)
            except urllib.error.URLError as error:
                if isinstance(error.reason, (socket.timeout, TimeoutError)):
                    self.stats.incr("timeouts")
                    metrics.errors.labels(*mount, "timeout").inc()
                    error_type = QueryTimeoutError
                    last_error = f"timed out after {self.timeout}s"
                else:
                    metrics.errors.labels(*mount, "connection").inc()
                    error_type = OutageError
                    last_error = str(error.reason)
                delay = self._backoff_delay(attempt)
            else:
                try:
                    payload = json.loads(body)
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
                self.sleep(delay)
        self._record(success=False)
        metrics.exhausted.labels(
            *mount, error_type.failure_class).inc()
        raise error_type(
            f"GET {url} failed after {self.max_retries + 1} attempts "
            f"({last_error})")

    def _record(self, success: bool) -> None:
        if self.breaker is None:
            return
        if success:
            self.breaker.record_success()
        else:
            self.breaker.record_failure()

    # -- endpoints -------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        return self._get("/status")

    def config_dictionary(self) -> CommunityDictionary:
        """The RS-config half of the paper's dictionary (§3)."""
        return CommunityDictionary.from_dict(self._get("/config"))

    def neighbors(self) -> List[api.NeighborSummary]:
        from . import dialects
        if self.dialect == dialects.DIALECT_BIRDSEYE:
            payload = self._get_raw(
                f"{self.base_url}/{self.ixp}/v{self.family}"
                "/api/protocols")
        else:
            payload = self._get("/neighbors")
        return dialects.parse_neighbors(payload, self.dialect)

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

    def _fetch_page(self, asn: int, filtered: bool, page: int,
                    page_size: int) -> Dict[str, Any]:
        """One routes page, with page-level retry on transient failure
        (a fresh ``_get_raw`` budget per attempt) so a single lost page
        does not discard the peer's whole pagination."""
        attempts = max(0, self.page_retries) + 1
        for attempt in range(attempts):
            try:
                return self._get_raw(
                    self._page_url(asn, filtered, page, page_size))
            except CircuitOpenError:
                raise  # the mount is down; retrying locally is pointless
            except TransientError:
                if attempt == attempts - 1:
                    raise
        raise AssertionError("unreachable")

    def routes(self, asn: int, filtered: bool = False,
               page_size: int = api.DEFAULT_PAGE_SIZE) -> Iterator[Route]:
        """All (accepted or filtered) routes of one neighbor, following
        pagination (dialect-aware)."""
        from . import dialects
        page = 1
        while True:
            payload = self._fetch_page(asn, filtered, page, page_size)
            yield from dialects.parse_routes(payload, self.dialect)
            if page >= dialects.total_pages(payload, self.dialect):
                return
            page += 1

    def all_routes(self, filtered: bool = False) -> List[Route]:
        """Accepted (or filtered) routes of every established neighbor,
        collected peer by peer — the paper's §3 procedure ("for each
        peer, we collect all the accepted routes")."""
        routes: List[Route] = []
        for neighbor in self.neighbors():
            if not neighbor.established:
                continue
            routes.extend(self.routes(neighbor.asn, filtered=filtered))
        return routes
