"""Scraping one Looking Glass snapshot the way §3 describes: the
summary first, then each peer's accepted routes, assembled by
:class:`~repro.collector.campaign.CollectionCampaign` — failure
handling, membership, ASN order and the §3 dictionary. Against a stub
LG serving canned JSON."""

import datetime

from repro.bgp.aspath import AsPath
from repro.bgp.route import Route
from repro.collector import DatasetStore
from repro.collector.campaign import (
    STATUS_COMPLETE,
    STATUS_DEGRADED,
    STATUS_FAILED,
    CampaignConfig,
    CampaignTarget,
    CollectionCampaign,
    utc_today,
)
from repro.ixp import (
    CommunityDictionary,
    dictionary_pair_for,
    get_profile,
)
from repro.lg import LookingGlassClient
from repro.lg.api import neighbors_payload, routes_payload

from ..support import StubLookingGlass

DATE = "2021-10-04"


def neighbor(asn, accepted=1, state="Established"):
    return {"asn": asn, "name": f"AS{asn}", "state": state,
            "routes_accepted": accepted, "routes_filtered": 2}


def make_route(prefix, peer):
    return Route(prefix=prefix, next_hop="195.66.224.1",
                 as_path=AsPath.from_asns([peer]), peer_asn=peer)


def stub_mount(neighbors, routes_by_asn, failing=()):
    """The linx resources: ``/neighbors``, ``/config`` and one routes
    page per listed peer; a failing peer's routes answer 404."""
    rs_dict, _ = dictionary_pair_for(get_profile("linx"))
    paths = {"/neighbors": neighbors_payload(neighbors),
             "/config": rs_dict.to_dict()}
    for row in neighbors:
        asn = row["asn"]
        if asn in failing:
            continue
        routes = routes_by_asn.get(asn, [])
        paths[f"/neighbors/{asn}/routes"] = routes_payload(
            routes, page=1, page_size=500, total=len(routes),
            filtered=False)
    return {"linx": paths}


def scrape(tmp_path, mounts, captured_on=DATE):
    """Collect linx v4 from a stub LG; returns (target report,
    snapshot or None)."""
    store = DatasetStore(tmp_path / "ds")
    with StubLookingGlass(mounts) as url:
        report = CollectionCampaign(store, CampaignConfig(
            base_url=url, captured_on=captured_on, max_retries=0,
            peer_attempts=1,
            targets=[CampaignTarget(ixp="linx", family=4)])).run()
    target = report.targets[0]
    date = captured_on or report.captured_on
    snapshot = (store.load_snapshot("linx", 4, date)
                if store.has_snapshot("linx", 4, date) else None)
    return target, snapshot


class TestCollect:
    def test_happy_path(self, tmp_path):
        target, snapshot = scrape(tmp_path, stub_mount(
            [neighbor(60001), neighbor(60002)],
            {60001: [make_route("20.0.0.0/16", 60001)],
             60002: [make_route("20.1.0.0/16", 60002)]}))
        assert target.status == STATUS_COMPLETE
        assert snapshot.route_count == 2
        assert snapshot.filtered_count == 4
        assert not snapshot.meta["degraded"]

    def test_failed_peer_recorded_not_fatal(self, tmp_path):
        target, snapshot = scrape(tmp_path, stub_mount(
            [neighbor(60001), neighbor(60002)],
            {60001: [make_route("20.0.0.0/16", 60001)]},
            failing={60002}))
        assert target.status == STATUS_DEGRADED
        assert [f.asn for f in target.failures] == [60002]
        assert target.peers_collected == 1
        # partial snapshots are flagged for the sanitation pass
        assert snapshot.meta["degraded"]
        assert snapshot.meta["peers_failed"] == [60002]

    def test_failed_peer_is_not_counted_as_member(self, tmp_path):
        """A degraded snapshot must not over-count the membership: a
        peer whose routes were never collected appears in meta only,
        never in the member list."""
        _target, snapshot = scrape(tmp_path, stub_mount(
            [neighbor(60001), neighbor(60002)],
            {60001: [make_route("20.0.0.0/16", 60001)]},
            failing={60002}))
        assert snapshot.member_count == 1
        assert snapshot.member_asns() == [60001]
        assert snapshot.meta["peers_failed"] == [60002]
        assert snapshot.meta["peer_failure_classes"] == {
            "60002": "lg_outage"}

    def test_idle_sessions_skipped(self, tmp_path):
        target, snapshot = scrape(tmp_path, stub_mount(
            [neighbor(60001), neighbor(60002, state="Idle")],
            {60001: [make_route("20.0.0.0/16", 60001)]}))
        assert target.peers_attempted == 1
        assert snapshot.member_count == 1

    def test_default_date_is_utc_today(self, tmp_path):
        """The default capture date is computed in UTC, so snapshots
        started near local midnight are dated the same everywhere."""
        _target, snapshot = scrape(tmp_path, stub_mount([], {}),
                                   captured_on=None)
        assert snapshot.captured_on == utc_today()
        assert utc_today() == datetime.datetime.now(
            datetime.timezone.utc).date().isoformat()

    def test_failed_neighbor_summary_not_fatal(self, tmp_path):
        """A dead LG must yield a failed target, not an unhandled
        LookingGlassError aborting the whole collection run."""
        mounts = stub_mount([], {})
        del mounts["linx"]["/neighbors"]
        target, snapshot = scrape(tmp_path, mounts)
        assert target.status == STATUS_FAILED
        assert snapshot is None
        assert "/neighbors failed: HTTP 404" in target.error


class TestAsnOrder:
    def make_world(self, peers=12, failing=(), reverse=True):
        """Many peers, by default presented in reverse ASN order so
        ordering guarantees are actually exercised."""
        asns = [60000 + i for i in range(peers)]
        listed = reversed(asns) if reverse else asns
        neighbors = [neighbor(asn) for asn in listed]
        routes = {asn: [make_route(f"20.{i}.0.0/16", asn)]
                  for i, asn in enumerate(asns)}
        return stub_mount(neighbors, routes, failing=failing)

    def test_snapshot_independent_of_listing_order(self, tmp_path):
        reversed_target, listed_reversed = scrape(
            tmp_path / "reversed", self.make_world())
        _target, listed_sorted = scrape(
            tmp_path / "sorted", self.make_world(reverse=False))
        # each stub LG listens on its own port: only the source differs
        for snapshot in (listed_reversed, listed_sorted):
            snapshot.meta.pop("source")
        assert listed_reversed.to_dict() == listed_sorted.to_dict()
        assert reversed_target.peers_collected == 12

    def test_members_and_routes_are_asn_sorted(self, tmp_path):
        _target, snapshot = scrape(tmp_path, self.make_world())
        members = [m.asn for m in snapshot.members]
        assert members == sorted(members)
        peers_in_route_order = [r.peer_asn for r in snapshot.routes]
        assert peers_in_route_order == sorted(peers_in_route_order)

    def test_failures_recorded_in_asn_order(self, tmp_path):
        target, snapshot = scrape(
            tmp_path, self.make_world(failing={60007, 60003}))
        assert [f.asn for f in target.failures] == [60003, 60007]
        assert snapshot.meta["peers_failed"] == [60003, 60007]
        assert snapshot.member_count == 10


class TestDictionary:
    """§3's dictionary: the LG's RS config, united with the IXP's
    website documentation."""

    def test_without_website_returns_rs_config(self):
        with StubLookingGlass(stub_mount([], {})) as url:
            dictionary = LookingGlassClient(
                url, "linx", 4).config_dictionary()
        rs_dict, _ = dictionary_pair_for(get_profile("linx"))
        assert len(dictionary) == len(rs_dict)

    def test_union_with_website(self):
        _, website = dictionary_pair_for(get_profile("linx"))
        with StubLookingGlass(stub_mount([], {})) as url:
            rs_dictionary = LookingGlassClient(
                url, "linx", 4).config_dictionary()
        dictionary = CommunityDictionary.union(
            rs_dictionary.ixp_name, rs_dictionary, website)
        assert len(dictionary) == get_profile("linx").dictionary_size
