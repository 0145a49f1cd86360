"""Unit tests for the hardened LG client: failure taxonomy, backoff,
Retry-After handling, circuit breaking, and page-level retry.

No sockets — ``repro.net.aio.http_request``, which the client's retry
core calls for every attempt, is replaced with a scripted fake, so
every failure mode is exact and instant.
"""

import json

import pytest

from repro.bgp.aspath import AsPath
from repro.bgp.route import Route
from repro.lg import api
from repro.lg.breaker import CircuitBreaker
from repro.lg.client import (
    CircuitOpenError,
    LookingGlassClient,
    LookingGlassError,
    MalformedPayloadError,
    OutageError,
    QueryTimeoutError,
    RateLimitedError,
)
from repro.net import aio


def http_error(code, retry_after=None):
    headers = {}
    if retry_after is not None:
        headers["retry-after"] = str(retry_after)
    return aio.HTTPResponse(code, f"HTTP {code}", headers,
                            b"error", reusable=True)


@pytest.fixture
def script(monkeypatch):
    """Install a scripted ``http_request``; append bytes (200 body),
    ``HTTPResponse`` instances or exception instances. Returns the
    list of performed request URLs."""
    steps = []
    urls = []

    def fake_http_request(pool, method, url, headers=None, timeout=None):
        urls.append(url)
        if not steps:
            raise AssertionError("unscripted request: " + url)
        step = steps.pop(0)
        if isinstance(step, BaseException):
            raise step
        if isinstance(step, bytes):
            step = aio.HTTPResponse(200, "OK", {}, step, reusable=True)
        return step
        yield  # a coroutine, like the real one

    monkeypatch.setattr(aio, "http_request", fake_http_request)
    return steps, urls


def make_client(**kwargs):
    sleeps = []
    defaults = dict(base_url="http://lg", ixp="linx", family=4,
                    max_retries=2, sleep=sleeps.append)
    defaults.update(kwargs)
    client = LookingGlassClient(**defaults)
    return client, sleeps


OK_STATUS = json.dumps({"status": "ok"}).encode()


class TestRetryAfter:
    def test_server_requested_wait_is_honoured(self, script):
        steps, _urls = script
        steps += [http_error(429, retry_after=5), OK_STATUS]
        client, sleeps = make_client()
        assert client.status() == {"status": "ok"}
        # previously clamped to backoff_cap (2 s) — must sleep the
        # requested 5 s.
        assert sleeps == [5.0]
        assert client.stats.rate_limited == 1

    def test_hostile_retry_after_clamped_to_cap(self, script):
        steps, _urls = script
        steps += [http_error(429, retry_after=3600), OK_STATUS]
        client, sleeps = make_client()
        client.status()
        assert sleeps == [60.0]

    def test_custom_cap(self, script):
        steps, _urls = script
        steps += [http_error(429, retry_after=3600), OK_STATUS]
        client, sleeps = make_client(retry_after_cap=10.0)
        client.status()
        assert sleeps == [10.0]

    def test_exhausted_raises_rate_limited(self, script):
        steps, _urls = script
        steps += [http_error(429, retry_after=0.5)] * 3
        client, _sleeps = make_client(max_retries=2)
        with pytest.raises(RateLimitedError) as excinfo:
            client.status()
        assert excinfo.value.failure_class == "rate_limited"
        assert client.stats.rate_limited == 3

    def test_http_date_retry_after_falls_back_to_backoff(self, script):
        """Regression: an HTTP-date Retry-After (RFC 9110's other legal
        form) used to escape the taxonomy as an uncaught ValueError
        from ``float(...)``. It must fall back to the backoff schedule
        and stay a retried 429."""
        steps, _urls = script
        steps += [http_error(
            429, retry_after="Fri, 31 Dec 2021 23:59:59 GMT"), OK_STATUS]
        client, sleeps = make_client(jitter=False, backoff_base=0.25)
        assert client.status() == {"status": "ok"}
        # backoff schedule, not a parsed date (and not a crash)
        assert sleeps == [0.25]
        assert client.stats.rate_limited == 1

    def test_garbage_retry_after_falls_back_to_backoff(self, script):
        steps, _urls = script
        steps += [http_error(429, retry_after="soon-ish"), OK_STATUS]
        client, sleeps = make_client(jitter=False, backoff_base=0.25)
        assert client.status() == {"status": "ok"}
        assert sleeps == [0.25]

    def test_parse_retry_after_forms(self):
        from repro.lg.client import parse_retry_after
        assert parse_retry_after("5") == 5.0
        assert parse_retry_after(" 2.5 ") == 2.5
        assert parse_retry_after("0") == 0.0
        assert parse_retry_after(None) is None
        assert parse_retry_after("-3") is None
        assert parse_retry_after("Fri, 31 Dec 2021 23:59:59 GMT") is None
        assert parse_retry_after("nan") is None
        assert parse_retry_after("inf") is None


class TestTaxonomy:
    def test_malformed_payload(self, script):
        steps, _urls = script
        steps += [b'{"status": "o', b'{"status']  # truncated JSON
        client, _sleeps = make_client(max_retries=1)
        with pytest.raises(MalformedPayloadError) as excinfo:
            client.status()
        assert excinfo.value.failure_class == "malformed_payload"
        assert client.stats.malformed == 2

    def test_malformed_then_clean_retry_succeeds(self, script):
        steps, _urls = script
        steps += [b'{"status": "o', OK_STATUS]
        client, _sleeps = make_client(max_retries=1)
        assert client.status() == {"status": "ok"}

    def test_timeout(self, script):
        steps, _urls = script
        steps += [aio.IOTimeout("I/O wait exceeded 0.5s"),
                  aio.IOTimeout("I/O wait exceeded 0.5s")]
        client, _sleeps = make_client(max_retries=1, timeout=0.5)
        with pytest.raises(QueryTimeoutError) as excinfo:
            client.status()
        assert excinfo.value.failure_class == "timeout"
        assert client.stats.timeouts == 2

    def test_undecodable_http_framing_is_malformed(self, script):
        """A status line or header that is not HTTP/1.1 is retried and
        lands in malformed_payload, counted with bad JSON bodies."""
        steps, _urls = script
        steps += [aio.ProtocolError("bad status line: b'HELLO THERE'"),
                  aio.ProtocolError("bad chunk size: b'zz'")]
        client, _sleeps = make_client(max_retries=1)
        with pytest.raises(MalformedPayloadError) as excinfo:
            client.status()
        assert excinfo.value.failure_class == "malformed_payload"
        assert client.stats.malformed == 2

    def test_lost_connections_are_outages(self, script):
        """The LG closing, resetting or refusing the connection is an
        outage, not an escaping socket error."""
        steps, _urls = script
        steps += [aio.ConnectionClosed("EOF inside response head"),
                  ConnectionRefusedError(111, "Connection refused")]
        client, _sleeps = make_client(max_retries=1)
        with pytest.raises(OutageError) as excinfo:
            client.status()
        assert excinfo.value.failure_class == "lg_outage"
        assert client.stats.requests == 2
        assert client.stats.retries == 1

    def test_outage_then_recovery_counts_retries(self, script):
        steps, _urls = script
        steps += [http_error(503), http_error(503), OK_STATUS]
        client, _sleeps = make_client(max_retries=3)
        assert client.status() == {"status": "ok"}
        assert client.stats.server_errors == 2
        assert client.stats.retries == 2

    def test_server_errors_are_outages(self, script):
        steps, _urls = script
        steps += [http_error(503), http_error(502)]
        client, _sleeps = make_client(max_retries=1)
        with pytest.raises(OutageError) as excinfo:
            client.status()
        assert excinfo.value.failure_class == "lg_outage"

    def test_4xx_is_definitive_not_retried(self, script):
        steps, _urls = script
        steps += [http_error(404)]
        client, _sleeps = make_client()
        with pytest.raises(LookingGlassError):
            client.status()
        assert client.stats.requests == 1
        # "LG said no" is now countable apart from transport loss
        assert client.stats.http_4xx == 1
        assert client.stats.server_errors == 0

    def test_http_4xx_stat_accumulates(self, script):
        steps, _urls = script
        steps += [http_error(404), http_error(410)]
        client, _sleeps = make_client()
        for _ in range(2):
            with pytest.raises(LookingGlassError):
                client.status()
        assert client.stats.http_4xx == 2


class TestBackoff:
    def test_without_jitter_delays_are_exponential(self, script):
        steps, _urls = script
        steps += [http_error(503)] * 3 + [OK_STATUS]
        client, sleeps = make_client(max_retries=3, jitter=False,
                                     backoff_base=0.1, backoff_cap=10.0)
        client.status()
        assert sleeps == [0.1, 0.2, 0.4]

    def test_full_jitter_stays_under_ceiling(self, script):
        steps, _urls = script
        steps += [http_error(503)] * 4 + [OK_STATUS]
        client, sleeps = make_client(max_retries=4, jitter=True,
                                     backoff_base=0.1, backoff_cap=0.3)
        client.status()
        ceilings = [0.1, 0.2, 0.3, 0.3]
        assert len(sleeps) == 4
        for delay, ceiling in zip(sleeps, ceilings):
            assert 0.0 <= delay <= ceiling
        # full jitter actually jitters (deterministic via seeded rng)
        assert sleeps != ceilings

    def test_jitter_is_reproducible(self, script):
        steps, _urls = script
        steps += [http_error(503)] * 2 + [OK_STATUS]
        client_a, sleeps_a = make_client(max_retries=2)
        client_a.status()
        steps += [http_error(503)] * 2 + [OK_STATUS]
        client_b, sleeps_b = make_client(max_retries=2)
        client_b.status()
        assert sleeps_a == sleeps_b


class TestCircuitBreaker:
    def fake_clock(self):
        state = {"now": 0.0}

        def clock():
            return state["now"]

        clock.advance = lambda s: state.__setitem__(  # type: ignore
            "now", state["now"] + s)
        return clock

    def test_opens_after_consecutive_failed_calls(self, script):
        steps, urls = script
        clock = self.fake_clock()
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=30.0,
                                 clock=clock)
        client, _sleeps = make_client(max_retries=0, breaker=breaker)
        steps += [http_error(503), http_error(503)]
        for _ in range(2):
            with pytest.raises(OutageError):
                client.status()
        requests_before = len(urls)
        with pytest.raises(CircuitOpenError) as excinfo:
            client.status()
        # refused locally: no request went out — and counted as its
        # own failure class, not folded into lg_outage
        assert len(urls) == requests_before
        assert excinfo.value.failure_class == "breaker_open"

    def test_half_open_probe_recovers(self, script):
        steps, _urls = script
        clock = self.fake_clock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=30.0,
                                 clock=clock)
        client, _sleeps = make_client(max_retries=0, breaker=breaker)
        steps += [http_error(503)]
        with pytest.raises(OutageError):
            client.status()
        with pytest.raises(CircuitOpenError):
            client.status()
        clock.advance(31.0)
        steps += [OK_STATUS]
        assert client.status() == {"status": "ok"}
        assert breaker.state == "closed"
        # and the mount is fully back in service
        steps += [OK_STATUS]
        assert client.status() == {"status": "ok"}


def route_page(routes, page, total, page_size=2):
    return json.dumps(api.routes_payload(
        routes, page, page_size, total, filtered=False)).encode()


def make_route(index):
    return Route(prefix=f"20.0.{index}.0/24", next_hop="192.0.2.1",
                 as_path=AsPath.from_asns([60001]), peer_asn=60001)


class TestPageRetry:
    def test_one_lost_page_does_not_discard_the_peer(self, script):
        steps, _urls = script
        routes = [make_route(i) for i in range(4)]
        steps += [
            route_page(routes[:2], page=1, total=4),
            # page 2 fails a whole _get_raw budget...
            http_error(503), http_error(503),
            # ...then the page-level retry gets it
            route_page(routes[2:], page=2, total=4),
        ]
        client, _sleeps = make_client(max_retries=1, page_retries=1)
        collected = list(client.routes(60001, page_size=2))
        assert len(collected) == 4

    def test_page_retry_budget_exhausts(self, script):
        steps, _urls = script
        routes = [make_route(i) for i in range(4)]
        steps += [route_page(routes[:2], page=1, total=4)]
        steps += [http_error(503)] * 4
        client, _sleeps = make_client(max_retries=1, page_retries=1)
        with pytest.raises(OutageError):
            list(client.routes(60001, page_size=2))

    def test_circuit_open_short_circuits_page_retry(self, script):
        """Once the breaker trips mid-pagination, the page-retry loop
        must stop immediately instead of burning its whole budget
        against a known-dead mount."""
        steps, urls = script
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=60.0)
        client, _sleeps = make_client(max_retries=0, page_retries=5,
                                      breaker=breaker)
        steps += [http_error(503)]
        # the 503 trips the breaker; the page-level retry then sees the
        # open circuit and gives up at once: exactly one request out.
        with pytest.raises(CircuitOpenError):
            list(client.routes(60001))
        assert len(urls) == 1
        with pytest.raises(CircuitOpenError):
            list(client.routes(60001))
        assert len(urls) == 1
