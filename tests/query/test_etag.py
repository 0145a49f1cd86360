"""The ETag contract (ISSUE satellite): strong sha256-derived tags,
``If-None-Match`` revalidation, and invalidation by re-collection —
the HTTP face of the aggregate cache's invalidate-by-construction."""

import string

from repro.core.engine import aggregate_cache_key
from repro.ixp.dictionary import CommunityRule
from repro.ixp.taxonomy import ActionCategory
from repro.query import QueryService

from .conftest import FAMILIES, IXPS

HEX = set(string.hexdigits.lower())


def is_sha256_hex(value: str) -> bool:
    return len(value) == 64 and set(value) <= HEX


class TestStrongETags:
    def test_every_route_serves_a_sha256_etag(self, service):
        for name, params in (("healthz", {}), ("ixps", {}),
                             ("keys", {}), ("tables", {}),
                             ("table", {"table": "1"}),
                             ("figures", {}),
                             ("figure", {"fig": "fig1"}),
                             ("aggregate", {"ixp": "linx",
                                            "family": "4"}),
                             ("export", {})):
            response = service.respond(name, params)
            assert response.status == 200, (name, response.body)
            assert is_sha256_hex(response.etag), name

    def test_aggregate_etag_is_the_cache_key(self, qstore, service):
        """The aggregate route's ETag IS the store's content address
        for that artefact — no second naming scheme."""
        response = service.respond("aggregate", {"ixp": "linx",
                                                 "family": "4"})
        date = qstore.snapshot_dates("linx", 4)[-1]
        expected = aggregate_cache_key(
            qstore.snapshot_digest("linx", 4, date),
            qstore.load_dictionary("linx").digest())
        assert response.etag == expected

    def test_routes_get_distinct_etags(self, service):
        etags = {service.respond(name, params).etag
                 for name, params in (("export", {}), ("keys", {}),
                                      ("table", {"table": "1"}),
                                      ("table", {"table": "2"}))}
        assert len(etags) == 4


class TestIfNoneMatch:
    def test_match_returns_304_with_empty_body(self, service):
        warm = service.respond("export")
        assert warm.status == 200
        revalidated = service.respond(
            "export", if_none_match=f'"{warm.etag}"')
        assert revalidated.status == 304
        assert revalidated.body == b""
        assert revalidated.etag == warm.etag

    def test_bare_and_weak_and_star_forms_match(self, service):
        etag = service.respond("keys").etag
        for header in (etag, f'"{etag}"', f'W/"{etag}"', "*",
                       f'"nope", "{etag}"'):
            assert service.respond(
                "keys", if_none_match=header).status == 304, header

    def test_stale_tag_gets_fresh_200(self, service):
        response = service.respond("export",
                                   if_none_match='"' + "0" * 64 + '"')
        assert response.status == 200
        assert response.body


class TestInvalidation:
    def test_recollection_moves_every_etag(self, qstore, service,
                                           linx_generator):
        before = {name: service.respond(name, params)
                  for name, params in (
                      ("export", {}), ("keys", {}),
                      ("aggregate", {"ixp": "linx", "family": "4"}))}
        # a client hangs on to the old tags…
        qstore.save_snapshot(linx_generator.snapshot(4, 21,
                                                     degraded=False))
        # …and every conditional request now misses: new content
        for (name, params), old in zip(
                ((n, p) for n, p in (("export", {}), ("keys", {}),
                                     ("aggregate", {"ixp": "linx",
                                                    "family": "4"}))),
                before.values()):
            fresh = service.respond(
                name, params, if_none_match=f'"{old.etag}"')
            assert fresh.status == 200, name
            assert fresh.etag != old.etag, name

    def test_unrelated_key_keeps_other_aggregates_stable(
            self, qstore, service, linx_generator):
        decix = service.respond("aggregate", {"ixp": "decix-fra",
                                              "family": "4"})
        qstore.save_snapshot(linx_generator.snapshot(4, 21,
                                                     degraded=False))
        again = service.respond(
            "aggregate", {"ixp": "decix-fra", "family": "4"},
            if_none_match=f'"{decix.etag}"')
        # decix-fra's content addresses did not move: still a 304
        assert again.status == 304

    def test_backfill_moves_series_etags(self, qstore, service,
                                         linx_generator):
        """Back-filling an older day changes ``/v1/ixps`` (its
        snapshot count) and Tables 3/4, so their ETags move too; the
        newest snapshot, hence the aggregate's address, stays."""
        routes = (("ixps", {}), ("table", {"table": "3"}),
                  ("table", {"table": "4"}),
                  ("aggregate", {"ixp": "linx", "family": "4"}))
        before = [service.respond(name, params)
                  for name, params in routes]
        qstore.save_snapshot(linx_generator.snapshot(4, 3,
                                                     degraded=False))
        fresh = QueryService(qstore, ixps=IXPS, families=FAMILIES)
        for (name, params), old in zip(routes[:3], before):
            again = service.respond(name, params,
                                    if_none_match=f'"{old.etag}"')
            assert again.status == 200, name
            assert again.etag != old.etag, name
            served = fresh.respond(name, params)
            assert (again.etag, again.body) == (served.etag,
                                                served.body), name
        aggregate = service.respond(
            *routes[3], if_none_match=f'"{before[3].etag}"')
        assert aggregate.status == 304

    def test_dictionary_change_moves_the_aggregate_etag(self, qstore,
                                                        service):
        before = service.respond("aggregate", {"ixp": "linx",
                                               "family": "4"})
        dictionary = qstore.load_dictionary("linx")
        dictionary.add_rule(CommunityRule(
            asn_field=65099, category=ActionCategory.BLACKHOLING,
            description="synthetic cache-busting rule"))
        qstore.save_dictionary("linx", dictionary)
        after = service.respond("aggregate", {"ixp": "linx",
                                              "family": "4"})
        assert after.etag != before.etag


class TestStoreListingMemo:
    def test_warm_probes_do_not_list_the_store(self, qstore, monkeypatch):
        """Without configured IXPs the service lists the store root
        only when the root's stat signature moves; a new IXP directory
        moves it, so the IXP appears and the ETag moves."""
        import json

        from repro.ixp import get_profile
        from repro.query import QueryHTTPServer
        from repro.workload import SnapshotGenerator

        from ..conftest import TINY

        server = QueryHTTPServer(QueryService(qstore, families=FAMILIES),
                                 rate_per_second=100_000, burst=100_000)
        status, _body, headers, _route = server.handle("/v1/ixps")
        assert status == 200
        listings = []
        listing = type(qstore).ixps

        def counted(store):
            listings.append(store)
            return listing(store)

        monkeypatch.setattr(type(qstore), "ixps", counted)
        for _ in range(100):
            assert server.handle("/v1/ixps")[2]["ETag"] == headers["ETag"]
        assert listings == []

        generator = SnapshotGenerator(get_profile("bcix"), TINY)
        qstore.save_dictionary("bcix", generator.dictionary)
        qstore.save_snapshot(generator.snapshot(4, 0, degraded=False))
        status, body, moved, _route = server.handle("/v1/ixps")
        assert status == 200
        assert "bcix" in [row["ixp"] for row in json.loads(body)]
        assert moved["ETag"] != headers["ETag"]
        assert listings
