"""Tests for the snapshot scraper's failure handling (no sockets —
drives the LG server's handler through a stub client)."""

import pytest

from repro.collector.scraper import ScrapeReport, SnapshotScraper
from repro.ixp import dictionary_for, dictionary_pair_for, get_profile
from repro.lg.api import NeighborSummary
from repro.lg.client import LookingGlassError


class StubClient:
    """A LookingGlassClient stand-in with scripted behaviour."""

    def __init__(self, neighbors, routes_by_asn, failing=()):
        self.ixp = "linx"
        self.family = 4
        self.base_url = "stub://lg"
        self._neighbors = neighbors
        self._routes = routes_by_asn
        self._failing = set(failing)

    def neighbors(self):
        return self._neighbors

    def routes(self, asn, filtered=False):
        if asn in self._failing:
            raise LookingGlassError(f"AS{asn} keeps timing out")
        yield from self._routes.get(asn, [])

    def config_dictionary(self):
        rs_dict, _ = dictionary_pair_for(get_profile("linx"))
        return rs_dict


def neighbor(asn, accepted=1, state="Established"):
    return NeighborSummary(asn=asn, name=f"AS{asn}", state=state,
                           routes_accepted=accepted, routes_filtered=2)


def make_route(prefix, peer):
    from repro.bgp.aspath import AsPath
    from repro.bgp.route import Route
    return Route(prefix=prefix, next_hop="195.66.224.1",
                 as_path=AsPath.from_asns([peer]), peer_asn=peer)


class TestCollect:
    def test_happy_path(self):
        client = StubClient(
            [neighbor(60001), neighbor(60002)],
            {60001: [make_route("20.0.0.0/16", 60001)],
             60002: [make_route("20.1.0.0/16", 60002)]})
        report = SnapshotScraper(client).collect("2021-10-04")
        assert report.complete
        assert report.snapshot.route_count == 2
        assert report.snapshot.filtered_count == 4
        assert not report.snapshot.meta["degraded"]

    def test_failed_peer_recorded_not_fatal(self):
        client = StubClient(
            [neighbor(60001), neighbor(60002)],
            {60001: [make_route("20.0.0.0/16", 60001)]},
            failing={60002})
        report = SnapshotScraper(client).collect("2021-10-04")
        assert not report.complete
        assert report.peers_failed == [60002]
        assert report.peers_collected == 1
        # partial snapshots are flagged for the sanitation pass
        assert report.snapshot.meta["degraded"]
        assert report.snapshot.meta["peers_failed"] == [60002]

    def test_failed_peer_is_not_counted_as_member(self):
        """A degraded snapshot must not over-count the membership: a
        peer whose routes were never collected appears in meta only,
        never in the member list."""
        client = StubClient(
            [neighbor(60001), neighbor(60002)],
            {60001: [make_route("20.0.0.0/16", 60001)]},
            failing={60002})
        report = SnapshotScraper(client).collect("2021-10-04")
        snapshot = report.snapshot
        assert snapshot.member_count == 1
        assert snapshot.member_asns() == [60001]
        assert snapshot.meta["peers_failed"] == [60002]
        assert snapshot.meta["peer_failure_classes"] == {
            "60002": "lg_outage"}

    def test_idle_sessions_skipped(self):
        client = StubClient(
            [neighbor(60001), neighbor(60002, state="Idle")],
            {60001: [make_route("20.0.0.0/16", 60001)]})
        report = SnapshotScraper(client).collect("2021-10-04")
        assert report.peers_attempted == 1
        assert report.snapshot.member_count == 1

    def test_default_date_is_utc_today(self):
        """The default capture date is computed in UTC, so snapshots
        started near local midnight are dated the same everywhere."""
        import datetime

        from repro.collector.scraper import utc_today

        client = StubClient([], {})
        report = SnapshotScraper(client).collect()
        assert report.snapshot.captured_on == utc_today()
        assert utc_today() == datetime.datetime.now(
            datetime.timezone.utc).date().isoformat()

    def test_failed_neighbor_summary_not_fatal(self):
        """A dead LG must yield a failed report, not an unhandled
        LookingGlassError aborting the whole collection run."""
        class DeadClient(StubClient):
            def neighbors(self):
                raise LookingGlassError("summary endpoint down")

        client = DeadClient([], {})
        report = SnapshotScraper(client).collect("2021-10-04")
        assert not report.complete
        assert report.snapshot is None
        assert "summary endpoint down" in report.error


class TestAsnOrder:
    def make_world(self, peers=12, failing=(), reverse=True):
        """Many peers, by default presented in reverse ASN order so
        ordering guarantees are actually exercised."""
        asns = [60000 + i for i in range(peers)]
        listed = reversed(asns) if reverse else asns
        neighbors = [neighbor(asn) for asn in listed]
        routes = {asn: [make_route(f"20.{i}.0.0/16", asn)]
                  for i, asn in enumerate(asns)}
        return StubClient(neighbors, routes, failing=failing)

    def test_snapshot_independent_of_listing_order(self):
        listed_reversed = SnapshotScraper(
            self.make_world()).collect("2021-10-04")
        listed_sorted = SnapshotScraper(
            self.make_world(reverse=False)).collect("2021-10-04")
        assert listed_reversed.snapshot.to_dict() \
            == listed_sorted.snapshot.to_dict()
        assert listed_reversed.peers_collected == 12

    def test_members_and_routes_are_asn_sorted(self):
        report = SnapshotScraper(self.make_world()).collect("2021-10-04")
        members = [m.asn for m in report.snapshot.members]
        assert members == sorted(members)
        peers_in_route_order = [r.peer_asn
                                for r in report.snapshot.routes]
        assert peers_in_route_order == sorted(peers_in_route_order)

    def test_failures_recorded_in_asn_order(self):
        report = SnapshotScraper(
            self.make_world(failing={60007, 60003})).collect("2021-10-04")
        assert report.peers_failed == [60003, 60007]
        assert report.snapshot.meta["peers_failed"] == [60003, 60007]
        assert report.snapshot.member_count == 10


class TestDictionary:
    def test_without_website_returns_rs_config(self):
        client = StubClient([], {})
        dictionary = SnapshotScraper(client).fetch_dictionary()
        rs_dict, _ = dictionary_pair_for(get_profile("linx"))
        assert len(dictionary) == len(rs_dict)

    def test_union_with_website(self):
        client = StubClient([], {})
        _, website = dictionary_pair_for(get_profile("linx"))
        dictionary = SnapshotScraper(client).fetch_dictionary(website)
        assert len(dictionary) == get_profile("linx").dictionary_size
