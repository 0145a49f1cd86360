"""Tests for the route server end-to-end behaviour."""

import pytest

from repro.bgp.aspath import AsPath
from repro.bgp.communities import standard
from repro.bgp.route import Route
from repro.ixp import dictionary_for, get_profile
from repro.ixp.member import Member, MemberRole
from repro.routeserver import RouteServer, RouteServerConfig


def member(asn, name=None):
    return Member(asn=asn, name=name or f"AS{asn}",
                  role=MemberRole.ACCESS_ISP, at_rs_v4=True)


def announce(server, peer, prefix, comms=(), asns=None):
    route = Route(prefix=prefix, next_hop="80.81.192.10",
                  as_path=AsPath.from_asns(asns or [peer]),
                  peer_asn=peer, communities=frozenset(comms))
    return server.announce(route)


@pytest.fixture()
def server():
    profile = get_profile("decix-fra")
    config = RouteServerConfig(
        rs_asn=6695, family=4, dictionary=dictionary_for(profile),
        blackholing_enabled=True,
        informational_tags=(standard(6695, 1000), standard(6695, 1001)))
    rs = RouteServer(config)
    for asn in (60500, 60501, 6939):
        rs.add_peer(member(asn))
    return rs


class TestSessions:
    def test_peers_listed(self, server):
        assert server.peer_asns() == [6939, 60500, 60501]

    def test_announce_without_session_raises(self, server):
        route = Route(prefix="20.0.0.0/16", next_hop="80.81.192.10",
                      as_path=AsPath.from_asns([99]), peer_asn=99)
        with pytest.raises(KeyError):
            server.announce(route)

    def test_remove_peer_flushes_routes(self, server):
        announce(server, 60500, "20.0.0.0/16")
        server.remove_peer(60500)
        assert server.accepted_routes() == []


class TestAnnouncements:
    def test_accepted_route_gets_informational_tags(self, server):
        stored = announce(server, 60500, "20.0.0.0/16")
        assert not stored.filtered
        assert standard(6695, 1000) in stored.communities
        assert standard(6695, 1001) in stored.communities

    def test_filtered_route_keeps_reason(self, server):
        stored = announce(server, 60500, "10.0.0.0/16")
        assert stored.filtered
        assert "bogon-prefix" in stored.filter_reason
        assert stored in server.filtered_routes(60500)
        assert stored not in server.accepted_routes(60500)

    def test_statistics(self, server):
        announce(server, 60500, "20.0.0.0/16")
        announce(server, 60501, "20.0.0.0/16")
        announce(server, 60501, "10.0.0.0/16")  # filtered
        stats = server.statistics()
        assert stats == {"peers": 3, "routes_accepted": 2,
                         "routes_filtered": 1, "prefixes": 1}

    def test_peers_summary(self, server):
        announce(server, 60500, "20.0.0.0/16")
        rows = {row["asn"]: row for row in server.peers_summary()}
        assert rows[60500]["routes_accepted"] == 1
        assert rows[60500]["state"] == "Established"


class TestExport:
    def test_dna_respected_and_scrubbed(self, server):
        announce(server, 60500, "20.0.0.0/16", comms={standard(0, 6939)})
        assert server.export_to(6939) == []
        exported = server.export_to(60501)
        assert len(exported) == 1
        # action community scrubbed, informational preserved
        assert standard(0, 6939) not in exported[0].communities
        assert standard(6695, 1000) in exported[0].communities

    def test_prepend_applied_per_target(self, server):
        announce(server, 60500, "20.0.0.0/16",
                 comms={standard(65502, 6939)})
        to_target = server.export_to(6939)[0]
        to_other = server.export_to(60501)[0]
        assert to_target.as_path.length == 3
        assert to_other.as_path.length == 1

    def test_export_excludes_own_routes(self, server):
        announce(server, 60500, "20.0.0.0/16")
        prefixes = [r.prefix for r in server.export_to(60500)]
        assert "20.0.0.0/16" not in prefixes

    def test_export_to_unknown_peer_raises(self, server):
        with pytest.raises(KeyError):
            server.export_to(12345)

    def test_ineffective_targets_of_route(self, server):
        stored = announce(server, 60500, "20.0.0.0/16",
                          comms={standard(0, 6939), standard(0, 15169)})
        missing = set(server.ineffective_targets_of(stored))
        assert missing == {15169}  # 6939 has a session, 15169 does not

    def test_blackhole_host_route_accepted_and_redistributed(self, server):
        from repro.ixp.schemes.common import BLACKHOLE_COMMUNITY
        stored = announce(server, 60500, "20.0.0.7/32",
                          comms={BLACKHOLE_COMMUNITY})
        assert not stored.filtered
        exported = server.export_to(60501)
        assert any(r.prefix == "20.0.0.7/32" for r in exported)
