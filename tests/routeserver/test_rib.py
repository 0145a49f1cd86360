"""Tests for the RIB structures."""

import pytest

from repro.bgp.aspath import AsPath
from repro.bgp.route import Route
from repro.routeserver.rib import AdjRibIn, RibStore


def route(prefix, peer=64500, filtered=False, reason=None):
    return Route(prefix=prefix, next_hop="192.0.2.1",
                 as_path=AsPath.from_asns([peer]), peer_asn=peer,
                 filtered=filtered, filter_reason=reason)


class TestAdjRibIn:
    def test_insert_accepted(self):
        rib = AdjRibIn(64500)
        rib.insert(route("20.0.0.0/16"))
        assert rib.accepted_count == 1
        assert rib.filtered_count == 0

    def test_insert_filtered(self):
        rib = AdjRibIn(64500)
        rib.insert(route("20.0.0.0/16", filtered=True, reason="x"))
        assert rib.filtered_count == 1

    def test_replacement_moves_between_sets(self):
        rib = AdjRibIn(64500)
        rib.insert(route("20.0.0.0/16"))
        rib.insert(route("20.0.0.0/16", filtered=True, reason="x"))
        assert rib.accepted_count == 0
        assert rib.filtered_count == 1

    def test_replacement_same_prefix_keeps_one(self):
        rib = AdjRibIn(64500)
        rib.insert(route("20.0.0.0/16"))
        rib.insert(route("20.0.0.0/16"))
        assert rib.accepted_count == 1

    def test_wrong_peer_rejected(self):
        rib = AdjRibIn(64500)
        with pytest.raises(ValueError):
            rib.insert(route("20.0.0.0/16", peer=64501))


class TestRibStore:
    def test_totals(self):
        store = RibStore()
        store.rib_for(1).insert(route("20.0.0.0/16", peer=1))
        store.rib_for(2).insert(route("20.1.0.0/16", peer=2))
        store.rib_for(2).insert(route("20.2.0.0/16", peer=2,
                                      filtered=True, reason="x"))
        assert store.totals() == (2, 1)

    def test_unique_prefixes_counts_shared_once(self):
        store = RibStore()
        store.rib_for(1).insert(route("20.0.0.0/16", peer=1))
        store.rib_for(2).insert(route("20.0.0.0/16", peer=2))
        assert store.unique_accepted_prefixes() == 1
        assert len(list(store.all_accepted())) == 2

    def test_drop_peer(self):
        store = RibStore()
        store.rib_for(1).insert(route("20.0.0.0/16", peer=1))
        store.drop_peer(1)
        assert store.totals() == (0, 0)
        assert store.peers() == []

    def test_peers_sorted(self):
        store = RibStore()
        for peer in (5, 1, 3):
            store.rib_for(peer)
        assert store.peers() == [1, 3, 5]
