"""Integration tests: LG HTTP server + client + a collection over
them."""

import pytest

from repro.collector import DatasetStore
from repro.collector.campaign import (
    CampaignConfig,
    CampaignTarget,
    CollectionCampaign,
)
from repro.ixp import CommunityDictionary, dictionary_pair_for, get_profile
from repro.lg import (
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
