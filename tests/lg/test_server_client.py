"""Integration tests: LG HTTP server + client + a collection over
them."""

import json
import socket
import subprocess
import sys
import time

import pytest

from repro.collector import DatasetStore
from repro.collector.campaign import (
    CampaignConfig,
    CampaignTarget,
    CollectionCampaign,
)
from repro.ixp import CommunityDictionary, dictionary_pair_for, get_profile
from repro.lg import (
    FaultSchedule,
    LookingGlassClient,
    LookingGlassError,
    LookingGlassServer,
)
from repro.lg.api import DEFAULT_PAGE_SIZE


@pytest.fixture(scope="module")
def lg_setup(lg_world):
    generator, route_server = lg_world("linx")
    server = LookingGlassServer({("linx", 4): route_server},
                                rate_per_second=10_000, burst=10_000)
    url = server.start()
    yield server, url, route_server, generator
    server.stop()


def make_client(url, **kwargs):
    return LookingGlassClient(url, "linx", 4, sleep=lambda s: None,
                              **kwargs)


def read_reply(sock):
    """Read one response with a Content-Length body from ``sock``:
    ``(status, headers, body)``."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError(f"closed before a reply: {data!r}")
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {name.lower(): value.strip() for name, _, value in
               (line.partition(":") for line in lines[1:])}
    while len(body) < int(headers["content-length"]):
        body += sock.recv(65536)
    return int(lines[0].split()[1]), headers, body


def get(port, path):
    """One GET on a fresh connection: ``(status, headers, body)``."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: lg\r\n\r\n"
                     .encode("latin-1"))
        return read_reply(sock)


class TestEndpoints:
    def test_status(self, lg_setup):
        _server, url, _rs, _gen = lg_setup
        status = make_client(url).status()
        assert status["status"] == "ok"
        assert status["rs_asn"] == 8714

    def test_config_dictionary_roundtrip(self, lg_setup):
        _server, url, rs, _gen = lg_setup
        dictionary = make_client(url).config_dictionary()
        assert len(dictionary) == len(rs.config.dictionary)

    def test_neighbors_match_route_server(self, lg_setup):
        _server, url, rs, _gen = lg_setup
        neighbors = make_client(url).neighbors()
        assert {n.asn for n in neighbors} == set(rs.peer_asns())

    def test_routes_pagination_complete(self, lg_setup):
        _server, url, rs, _gen = lg_setup
        client = make_client(url)
        neighbor = max(client.neighbors(), key=lambda n: n.routes_accepted)
        assert neighbor.routes_accepted > DEFAULT_PAGE_SIZE // 10
        routes = list(client.routes(neighbor.asn, page_size=37))
        assert len(routes) == neighbor.routes_accepted
        assert len({r.prefix for r in routes}) == len(routes)

    def test_unknown_neighbor_404(self, lg_setup):
        _server, url, _rs, _gen = lg_setup
        with pytest.raises(LookingGlassError):
            list(make_client(url).routes(59999))

    def test_unknown_mount_404(self, lg_setup):
        _server, url, _rs, _gen = lg_setup
        client = LookingGlassClient(url, "amsix", 4, sleep=lambda s: None)
        with pytest.raises(LookingGlassError):
            client.status()

    def test_communities_visible_via_lg(self, lg_setup):
        """Action communities MUST be visible at the LG — the paper's
        core methodological point (footnote 1)."""
        _server, url, rs, gen = lg_setup
        client = make_client(url)
        routes = client.all_routes()
        with_actions = [r for r in routes
                        if any(c.asn == 0 for c in r.communities)]
        assert with_actions, "no action communities visible via the LG"


class TestResilience:
    def test_client_retries_on_injected_failures(self, lg_setup):
        server, url, _rs, _gen = lg_setup
        server.injector.failure_rate = 0.4
        server.injector.burst_length = 1
        try:
            client = make_client(url)
            status = client.status()
            assert status["status"] == "ok"
            assert client.stats.retries > 0 or client.stats.requests == 1
        finally:
            server.injector.failure_rate = 0.0

    def test_rate_limit_produces_429_then_recovers(self, lg_setup):
        server, url, _rs, _gen = lg_setup
        old_bucket = server.bucket
        from repro.net.ratelimit import TokenBucket
        server.bucket = TokenBucket(rate_per_second=50, burst=1)
        try:
            import time
            client = LookingGlassClient(url, "linx", 4, sleep=time.sleep)
            client.status()
            client.status()  # must hit the limiter and retry
            assert client.stats.rate_limited >= 1
        finally:
            server.bucket = old_bucket

    def test_gives_up_after_max_retries(self, lg_setup):
        server, url, _rs, _gen = lg_setup
        server.injector.failure_rate = 1.0
        try:
            client = make_client(url, max_retries=2)
            with pytest.raises(LookingGlassError):
                client.status()
            assert client.stats.requests == 3
        finally:
            server.injector.failure_rate = 0.0


class TestScraper:
    def test_collect_produces_equivalent_snapshot(self, lg_setup,
                                                  tmp_path):
        _server, url, rs, gen = lg_setup
        store = DatasetStore(tmp_path / "ds")
        report = CollectionCampaign(store, CampaignConfig(
            base_url=url, captured_on="2021-10-04",
            targets=[CampaignTarget(ixp="linx", family=4)])).run()
        assert report.complete
        snapshot = store.load_snapshot("linx", 4, "2021-10-04")
        assert snapshot.member_count == len(rs.peer_asns())
        assert snapshot.route_count == len(rs.accepted_routes())
        direct = gen.snapshot(4, degraded=False)
        # Same routes as the direct (non-HTTP) snapshot path.
        assert snapshot.route_count == direct.route_count

    def test_dictionary_union_with_website(self, lg_setup):
        _server, url, _rs, gen = lg_setup
        profile = get_profile("linx")
        _rs_dict, website = dictionary_pair_for(profile)
        rs_dictionary = make_client(url).config_dictionary()
        merged = CommunityDictionary.union(rs_dictionary.ixp_name,
                                           rs_dictionary, website)
        assert len(merged) == profile.dictionary_size


class TestScheduledFaultsOverHttp:
    """The FaultSchedule exercised end-to-end through real sockets."""

    def test_malformed_payload_reaches_client_taxonomy(self, lg_setup):
        from repro.lg import FaultSchedule, MalformedPayloadError
        server, url, _rs, _gen = lg_setup
        server.faults = FaultSchedule(malformed_every=1)
        try:
            client = make_client(url, max_retries=0)
            with pytest.raises(MalformedPayloadError):
                client.status()
            assert client.stats.malformed == 1
        finally:
            server.faults = None

    def test_slow_response_trips_client_timeout(self, lg_setup):
        from repro.lg import FaultSchedule, QueryTimeoutError
        server, url, _rs, _gen = lg_setup
        server.faults = FaultSchedule(slow_every=1, slow_delay=0.5)
        try:
            client = make_client(url, max_retries=0, timeout=0.1)
            with pytest.raises(QueryTimeoutError):
                client.status()
            assert client.stats.timeouts == 1
        finally:
            server.faults = None

    def test_outage_window_then_recovery(self, lg_setup):
        from repro.lg import FaultSchedule, OutageError
        server, url, _rs, _gen = lg_setup
        server.faults = FaultSchedule(outage_windows=[(0, 2)])
        try:
            client = make_client(url, max_retries=0)
            for _ in range(2):
                with pytest.raises(OutageError):
                    client.status()
            assert client.status()["status"] == "ok"
        finally:
            server.faults = None


ROUTES_PATHS = ("/linx/v4/api/v1/neighbors/{asn}/routes",
                "/linx/v4/api/routes/pb_{asn}")


class TestPageParameters:
    """A ``page`` or ``page_size`` that is not an integer answers 400 on
    both URL layouts, socket-free and over a socket."""

    @pytest.fixture()
    def asn(self, lg_setup):
        _server, _url, rs, _gen = lg_setup
        return sorted(rs.peer_asns())[0]

    @pytest.mark.parametrize("layout", ROUTES_PATHS)
    @pytest.mark.parametrize("query", ["page=abc", "page_size=x",
                                       "page=1&page_size=1.5"])
    def test_handle_answers_400(self, lg_setup, asn, layout, query):
        server, _url, _rs, _gen = lg_setup
        status, payload = server.handle(
            layout.format(asn=asn) + "?" + query)
        assert status == 400
        assert payload["code"] == 400

    @pytest.mark.parametrize("layout", ROUTES_PATHS)
    def test_socket_answers_400_and_keeps_serving(self, lg_setup, asn,
                                                 layout):
        server, _url, _rs, _gen = lg_setup
        path = layout.format(asn=asn)
        status, _headers, body = get(server.port, path + "?page=abc")
        assert status == 400
        assert json.loads(body)["code"] == 400
        status, _headers, _body = get(server.port, path + "?page=1")
        assert status == 200


class TestLongNeighborIds:
    """A neighbor id wider than any 32-bit ASN is an unknown resource
    (404) on both URL layouts, never a 500 from ``int()``'s digit
    limit."""

    @pytest.mark.parametrize("layout", ROUTES_PATHS)
    @pytest.mark.parametrize("asn", ["1" * 5000, "1" * 11],
                             ids=["5000-digits", "11-digits"])
    def test_handle_answers_404(self, lg_setup, layout, asn):
        server, _url, _rs, _gen = lg_setup
        status, payload = server.handle(layout.format(asn=asn))
        assert status == 404
        assert payload["code"] == 404

    @pytest.mark.parametrize("layout", ROUTES_PATHS)
    def test_widest_asn_is_looked_up(self, lg_setup, layout):
        server, _url, _rs, _gen = lg_setup
        status, payload = server.handle(layout.format(asn=4294967295))
        assert status == 404
        # the ten-digit id reached the peer lookup: no such neighbor
        assert payload["message"].endswith("4294967295")

    def test_socket_answers_404_and_keeps_serving(self, lg_setup):
        server, _url, rs, _gen = lg_setup
        status, _headers, body = get(
            server.port, ROUTES_PATHS[0].format(asn="1" * 5000))
        assert status == 404
        assert json.loads(body)["code"] == 404
        asn = sorted(rs.peer_asns())[0]
        status, _headers, _body = get(server.port,
                                      ROUTES_PATHS[0].format(asn=asn))
        assert status == 200


class TestLoopServing:
    """The LG on its event loop: stalls overlap, the connection cap's
    ledger follows connection closes, the ops plane draws no fault."""

    def test_slow_responses_overlap_across_connections(self, lg_setup):
        server, _url, _rs, _gen = lg_setup
        delay = 0.3
        server.faults = FaultSchedule(slow_every=1, slow_delay=delay)
        socks = [socket.create_connection(("127.0.0.1", server.port),
                                          timeout=5) for _ in range(8)]
        try:
            started = time.monotonic()
            for sock in socks:
                sock.sendall(b"GET /linx/v4/api/v1/status HTTP/1.1\r\n"
                             b"Host: lg\r\n\r\n")
            statuses = [read_reply(sock)[0] for sock in socks]
            elapsed = time.monotonic() - started
        finally:
            server.faults = None
            for sock in socks:
                sock.close()
        assert statuses == [200] * 8
        assert elapsed < 2 * delay, elapsed

    def test_closed_connection_frees_its_cap_slot(self, lg_world):
        _generator, route_server = lg_world("linx")
        server = LookingGlassServer({("linx", 4): route_server},
                                    rate_per_second=100_000,
                                    burst=100_000, connection_cap=2)
        request = (b"GET /linx/v4/api/v1/status HTTP/1.1\r\n"
                   b"Host: lg\r\n\r\n")
        with server.serve():
            admitted = [socket.create_connection(
                ("127.0.0.1", server.port), timeout=5) for _ in range(2)]
            try:
                for sock in admitted:
                    sock.sendall(request)
                    assert read_reply(sock)[0] == 200
                status, headers, _body = get(server.port,
                                             "/linx/v4/api/v1/status")
                assert (status, headers["connection"]) == (503, "close")
                # half-close one: the server closes it in turn, and has
                # released its slot by the time we read that EOF.
                admitted[0].shutdown(socket.SHUT_WR)
                assert admitted[0].recv(1) == b""
                assert get(server.port, "/linx/v4/api/v1/status")[0] \
                    == 200
            finally:
                for sock in admitted:
                    sock.close()
        assert server.cap_rejections == 1
        assert server.peak_connections["linx/v4"] == 2

    def test_metrics_draws_no_fault(self, lg_setup):
        server, _url, _rs, _gen = lg_setup
        server.faults = FaultSchedule()
        try:
            assert get(server.port, "/linx/v4/api/v1/status")[0] == 200
            assert server.faults.requests_seen == 1
            status, headers, _body = get(server.port, "/metrics")
            assert status == 200
            assert headers["content-type"].startswith("text/plain")
            assert server.faults.requests_seen == 1
            assert get(server.port, "/linx/v4/api/v1/status")[0] == 200
            assert server.faults.requests_seen == 2
        finally:
            server.faults = None


def test_package_imports_no_stdlib_http_server():
    """One HTTP server stack: neither server pulls in ``http.server``."""
    probe = ("import sys, repro.cli, repro.lg, repro.query; "
             "print('http.server' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
