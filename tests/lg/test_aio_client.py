"""Integration tests for the LG client on its :mod:`repro.net.aio`
event loop, over real sockets: page fan-out against one fetch at a
time, the failure taxonomy over real HTTP faults, Retry-After forms on
the wire, the per-mount connection cap against the server's
concurrent-connection fault mode, and socket release.
"""

import gc
import json
import socket
import threading
import warnings

import pytest

from repro.lg import (
    FaultSchedule,
    LookingGlassClient,
    LookingGlassServer,
)
from repro.lg.client import (
    LookingGlassError,
    MalformedPayloadError,
    OutageError,
    RateLimitedError,
)


@pytest.fixture(scope="module")
def lg_setup(lg_world):
    generator, route_server = lg_world("linx")
    server = LookingGlassServer({("linx", 4): route_server},
                                rate_per_second=100_000, burst=100_000)
    url = server.start()
    yield server, url, route_server, generator
    server.stop()


def make_fanout(url, **kwargs):
    """A client allowed many fetches in flight (``max_inflight``)."""
    kwargs.setdefault("max_inflight", 32)
    return make_client(url, **kwargs)


def make_client(url, **kwargs):
    """A client at the default bound: one fetch, one connection."""
    defaults = dict(base_url=url, ixp="linx", family=4,
                    backoff_base=0.001, backoff_cap=0.01, timeout=5.0)
    defaults.update(kwargs)
    return LookingGlassClient(**defaults)


class TestParity:
    def test_paginated_routes_identical_to_sync(self, lg_setup):
        """Page fan-out must reassemble in page order: the route list
        is byte-for-byte the one-page-at-a-time pagination's."""
        _server, url, _rs, _gen = lg_setup
        aclient = make_fanout(url, max_inflight=8)
        single = make_client(url)
        try:
            neighbor = max(single.neighbors(),
                           key=lambda n: n.routes_accepted)
            expected = list(single.routes(neighbor.asn, page_size=17))
            got = list(aclient.routes(neighbor.asn, page_size=17))
            assert got == expected
        finally:
            aclient.close()

    def test_fetch_peers_matches_serial_per_peer_fetches(self, lg_setup):
        _server, url, _rs, _gen = lg_setup
        aclient = make_fanout(url, max_inflight=8)
        single = make_client(url)
        try:
            established = sorted(
                (n for n in single.neighbors() if n.established),
                key=lambda n: n.asn)
            outcomes = aclient.fetch_peers(established, page_size=25)
            assert set(outcomes) == {n.asn for n in established}
            for neighbor in established[:5]:
                assert outcomes[neighbor.asn] == list(
                    single.routes(neighbor.asn, page_size=25))
        finally:
            aclient.close()


class TestTaxonomy:
    def test_definitive_404_bumps_http_4xx(self, lg_setup):
        _server, url, _rs, _gen = lg_setup
        aclient = make_fanout(url)
        try:
            with pytest.raises(LookingGlassError):
                list(aclient.routes(59999))
            assert aclient.stats.http_4xx == 1
            assert aclient.stats.requests == 1  # definitive: no retry
        finally:
            aclient.close()

    def test_malformed_payload_class(self, lg_world, tmp_path):
        _generator, route_server = lg_world("linx")
        server = LookingGlassServer(
            {("linx", 4): route_server},
            rate_per_second=100_000, burst=100_000,
            faults=FaultSchedule(malformed_every=1))
        with server.serve() as url:
            aclient = make_fanout(url, max_retries=1)
            try:
                with pytest.raises(MalformedPayloadError) as excinfo:
                    aclient.status()
                assert excinfo.value.failure_class \
                    == "malformed_payload"
                assert aclient.stats.malformed == 2
            finally:
                aclient.close()

    def test_outage_class_and_recovery(self, lg_world, tmp_path):
        _generator, route_server = lg_world("linx")
        server = LookingGlassServer(
            {("linx", 4): route_server},
            rate_per_second=100_000, burst=100_000,
            faults=FaultSchedule(outage_windows=[(0, 2)]))
        with server.serve() as url:
            aclient = make_fanout(url, max_retries=3)
            try:
                # requests 0 and 1 are 503s; retry 2 succeeds
                assert aclient.status()["status"] == "ok"
                assert aclient.stats.server_errors == 2
                assert aclient.stats.retries == 2
            finally:
                aclient.close()

    def test_rate_limited_class_when_exhausted(self, lg_world):
        _generator, route_server = lg_world("linx")
        server = LookingGlassServer({("linx", 4): route_server},
                                    rate_per_second=0.001, burst=1)
        with server.serve() as url:
            aclient = make_fanout(url, max_retries=1,
                                 retry_after_cap=0.01)
            try:
                aclient.status()  # consumes the single burst token
                with pytest.raises(RateLimitedError) as excinfo:
                    aclient.status()
                assert excinfo.value.failure_class == "rate_limited"
                assert aclient.stats.rate_limited >= 1
            finally:
                aclient.close()


class _ScriptedHTTP:
    """Raw-socket server answering each request with the next scripted
    (status, headers, body) triple — for header forms the simulated LG
    never emits (HTTP-date Retry-After)."""

    def __init__(self, responses):
        self.responses = list(responses)
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self.url = f"http://127.0.0.1:{self.port}"
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while self.responses:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with conn:
                conn.settimeout(5.0)
                while self.responses:
                    head = b""
                    try:
                        while b"\r\n\r\n" not in head:
                            chunk = conn.recv(65536)
                            if not chunk:
                                raise OSError("closed")
                            head += chunk
                    except OSError:
                        break
                    status, headers, body = self.responses.pop(0)
                    lines = [f"HTTP/1.1 {status} X"]
                    lines += [f"{k}: {v}" for k, v in headers]
                    lines.append(f"Content-Length: {len(body)}")
                    payload = ("\r\n".join(lines) + "\r\n\r\n"
                               ).encode() + body
                    try:
                        conn.sendall(payload)
                    except OSError:
                        break

    def close(self):
        self._sock.close()
        self._thread.join(timeout=2)


OK_BODY = json.dumps({"status": "ok"}).encode()


class TestRetryAfterForms:
    def test_numeric_retry_after_is_honoured(self):
        server = _ScriptedHTTP([
            (429, [("Retry-After", "0.03")], b"slow down"),
            (200, [], OK_BODY),
        ])
        try:
            aclient = make_fanout(server.url, max_retries=2)
            assert aclient.status() == {"status": "ok"}
            assert aclient.stats.rate_limited == 1
            aclient.close()
        finally:
            server.close()

    def test_http_date_retry_after_falls_back_to_backoff(self):
        """Regression: an HTTP-date Retry-After must not crash the
        retry loop — the client falls back to its backoff schedule and
        recovers."""
        server = _ScriptedHTTP([
            (429, [("Retry-After", "Fri, 31 Dec 2021 23:59:59 GMT")],
             b"later"),
            (200, [], OK_BODY),
        ])
        try:
            aclient = make_fanout(server.url, max_retries=2)
            assert aclient.status() == {"status": "ok"}
            assert aclient.stats.rate_limited == 1
            aclient.close()
        finally:
            server.close()


class TestConnectionCap:
    def test_cap_respected_under_full_fanout(self, lg_world):
        """max_connections=K against a server enforcing exactly K:
        a full peer fan-out must finish with zero cap rejections —
        the client-side cap really bounds pressure on the LG."""
        _generator, route_server = lg_world("linx")
        cap = 4
        server = LookingGlassServer({("linx", 4): route_server},
                                    rate_per_second=100_000,
                                    burst=100_000,
                                    connection_cap=cap)
        with server.serve() as url:
            aclient = make_fanout(url, max_inflight=16,
                                 max_connections=cap)
            single = make_client(url)
            try:
                established = sorted(
                    (n for n in single.neighbors() if n.established),
                    key=lambda n: n.asn)
                outcomes = aclient.fetch_peers(established,
                                               page_size=20)
                assert not any(isinstance(v, LookingGlassError)
                               for v in outcomes.values())
                assert server.cap_rejections == 0
                assert aclient.pool.opened <= cap
                assert aclient.peak_inflight > cap  # fan-out > sockets
            finally:
                aclient.close()

    def test_server_fault_mode_rejects_excess_connections(self,
                                                          lg_world):
        """The fault mode itself: more simultaneous connections than
        the cap draw 503s, and the server counts the rejections."""
        _generator, route_server = lg_world("linx")
        server = LookingGlassServer({("linx", 4): route_server},
                                    rate_per_second=100_000,
                                    burst=100_000,
                                    connection_cap=2)
        with server.serve() as url:
            host, port = "127.0.0.1", server.port
            socks = []
            statuses = []
            try:
                for _ in range(4):
                    sock = socket.create_connection((host, port),
                                                    timeout=5)
                    socks.append(sock)
                    sock.sendall(b"GET /linx/v4/api/v1/status "
                                 b"HTTP/1.1\r\nHost: lg\r\n\r\n")
                for sock in socks:
                    head = b""
                    while b"\r\n\r\n" not in head:
                        chunk = sock.recv(65536)
                        if not chunk:
                            break
                        head += chunk
                    statuses.append(int(head.split(None, 2)[1]))
            finally:
                for sock in socks:
                    sock.close()
            assert statuses.count(200) == 2
            assert statuses.count(503) == 2
            assert server.cap_rejections == 2
            assert server.peak_connections["linx/v4"] == 2


class TestResourceRelease:
    def test_blocking_call_leaves_no_socket_open(self, lg_setup):
        """A blocking method returns with every connection it used
        closed: nothing is left for the garbage collector."""
        _server, url, _rs, _gen = lg_setup
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            client = make_client(url)
            assert client.status()["status"] == "ok"
            assert client.pool.opened == 1
            assert client.pool.open_connections() == 0
            del client
            gc.collect()
        leaked = [w for w in caught
                  if issubclass(w.category, ResourceWarning)]
        assert not leaked, [str(w.message) for w in leaked]
