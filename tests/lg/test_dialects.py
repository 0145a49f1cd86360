"""Tests for the LG API dialect layer (alice vs birdseye)."""

import pytest

from repro.bgp.aspath import AsPath
from repro.bgp.communities import ExtendedCommunity, large, standard
from repro.bgp.route import Route
from repro.lg import (
    LookingGlassClient,
    LookingGlassError,
    LookingGlassServer,
    MalformedPayloadError,
)
from repro.lg.dialects import (
    DIALECT_ALICE,
    DIALECT_BIRDSEYE,
    DialectError,
    birdseye_protocols,
    birdseye_routes,
    parse_neighbors,
    parse_routes,
    total_pages,
)


def make_route():
    return Route(
        prefix="20.0.0.0/16", next_hop="193.178.185.10",
        as_path=AsPath.from_asns([60001, 60001, 777]),
        peer_asn=60001,
        communities=frozenset({standard(0, 6939)}),
        extended_communities=frozenset({ExtendedCommunity(0, 2, 16374,
                                                          15169)}),
        large_communities=frozenset({large(16374, 0, 15169)}))


class TestBirdseyeRendering:
    def test_protocols_schema(self):
        payload = birdseye_protocols([
            {"asn": 60001, "name": "X", "state": "Established",
             "routes_accepted": 5, "routes_filtered": 1},
            {"asn": 60002, "name": "Y", "state": "Idle",
             "routes_accepted": 0, "routes_filtered": 0}])
        assert payload["protocols"]["pb_60001"]["state"] == "up"
        assert payload["protocols"]["pb_60002"]["state"] == "down"
        assert payload["protocols"]["pb_60001"]["routes_imported"] == 5

    def test_routes_schema(self):
        payload = birdseye_routes([make_route()], 1, 10, 1)
        row = payload["routes"][0]
        assert row["network"] == "20.0.0.0/16"
        assert row["bgp"]["as_path"] == ["60001", "60001", "777"]
        assert [0, 6939] in row["bgp"]["communities"]
        assert row["from_protocol"] == "pb_60001"
        assert payload["api"]["pagination"]["total_pages"] == 1


class TestTranslation:
    def test_birdseye_neighbors_normalised(self):
        payload = birdseye_protocols([
            {"asn": 60001, "name": "X", "state": "Established",
             "routes_accepted": 5, "routes_filtered": 1}])
        summaries = parse_neighbors(payload, DIALECT_BIRDSEYE)
        assert summaries[0].asn == 60001
        assert summaries[0].established
        assert summaries[0].routes_accepted == 5

    def test_birdseye_route_roundtrip(self):
        route = make_route()
        payload = birdseye_routes([route], 1, 10, 1)
        restored = parse_routes(payload, DIALECT_BIRDSEYE)[0]
        assert restored == route

    def test_alice_passthrough(self):
        from repro.lg import api
        route = make_route()
        payload = api.routes_payload([route], 1, 10, 1, False)
        assert parse_routes(payload, DIALECT_ALICE)[0] == route
        assert total_pages(payload, DIALECT_ALICE) == 1

    @pytest.mark.parametrize("parse,payload", [
        (parse_neighbors,
         {"protocols": {"pb_60001": {"description": "X"}}}),
        (parse_neighbors, {"protocols": []}),
        (parse_routes, {"routes": [{
            "network": "20.0.0.0/16", "gateway": "193.178.185.10",
            "bgp": {"large_communities": [[16374, 0]]},
            "from_protocol": "pb_60001"}]}),
        (total_pages, {"api": {"pagination": {"total_pages": "many"}}}),
    ], ids=["protocol-without-neighbor-as", "protocols-list",
            "large-community-two-fields", "total-pages-not-a-number"])
    def test_birdseye_wrong_shape_is_malformed(self, parse, payload):
        with pytest.raises(MalformedPayloadError) as caught:
            parse(payload, DIALECT_BIRDSEYE)
        assert caught.value.failure_class == "malformed_payload"

    def test_unknown_dialect(self):
        with pytest.raises(DialectError):
            parse_neighbors({}, "quagga")
        with pytest.raises(DialectError):
            parse_routes({}, "quagga")
        with pytest.raises(DialectError):
            total_pages({}, "quagga")


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def served(self, linx_generator):
        server = LookingGlassServer(
            {("linx", 4): linx_generator.populated_route_server(4)},
            rate_per_second=1e9, burst=10**6)
        url = server.start()
        yield server, url
        server.stop()

    def test_both_dialects_see_identical_data(self, served):
        _server, url = served
        alice = LookingGlassClient(url, "linx", 4, sleep=lambda s: None)
        birdseye = LookingGlassClient(url, "linx", 4,
                                      dialect="birdseye",
                                      sleep=lambda s: None)
        alice_routes = sorted(alice.all_routes(),
                              key=lambda r: (r.peer_asn, r.prefix))
        birdseye_routes_list = sorted(birdseye.all_routes(),
                                      key=lambda r: (r.peer_asn, r.prefix))
        assert len(alice_routes) == len(birdseye_routes_list)
        # communities — the paper's subject — survive both dialects
        for a, b in zip(alice_routes[:50], birdseye_routes_list[:50]):
            assert a.prefix == b.prefix
            assert a.communities == b.communities
            assert a.large_communities == b.large_communities

    def test_birdseye_pagination(self, served):
        _server, url = served
        client = LookingGlassClient(url, "linx", 4, dialect="birdseye",
                                    sleep=lambda s: None)
        neighbor = max(client.neighbors(),
                       key=lambda n: n.routes_accepted)
        routes = list(client.routes(neighbor.asn, page_size=23))
        assert len(routes) == neighbor.routes_accepted

    def test_birdseye_has_no_filtered_view(self, served):
        _server, url = served
        client = LookingGlassClient(url, "linx", 4, dialect="birdseye",
                                    sleep=lambda s: None)
        with pytest.raises(LookingGlassError):
            list(client.routes(1, filtered=True))

    def test_scraper_works_over_birdseye(self, served, linx_generator,
                                         tmp_path):
        from repro.collector import DatasetStore
        from repro.collector.campaign import (
            CampaignConfig,
            CampaignTarget,
            CollectionCampaign,
        )
        _server, url = served
        store = DatasetStore(tmp_path / "ds")
        report = CollectionCampaign(store, CampaignConfig(
            base_url=url, captured_on="2021-10-04",
            targets=[CampaignTarget(ixp="linx", family=4,
                                    dialect="birdseye")])).run()
        assert report.complete
        direct = linx_generator.snapshot(4, degraded=False)
        snapshot = store.load_snapshot("linx", 4, "2021-10-04")
        assert snapshot.route_count == direct.route_count
