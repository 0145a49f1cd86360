"""Aggregate-cache lifecycle over a DatasetStore: warm analyzes hit,
re-collection and dictionary edits invalidate by construction, and a
damaged cache entry quarantines + recomputes without ever changing
the analysis output."""

import pytest

from repro.collector import DatasetStore, fsck_store
from repro.core import Study
from repro.core.engine import AggregateCache, aggregate_cache_key
from repro.ixp.dictionary import CommunityRule
from repro.ixp.taxonomy import ActionCategory

from ..chaos.conftest import flip_trailer_bit, overwrite_garbage, truncate

DAYS = (0, 7)


@pytest.fixture()
def store(tmp_path, linx_generator):
    store = DatasetStore(tmp_path / "dataset")
    store.save_dictionary("linx", linx_generator.dictionary)
    for day in DAYS:
        store.save_snapshot(linx_generator.snapshot(4, day,
                                                    degraded=False))
    return store


@pytest.fixture()
def reads(store, monkeypatch):
    """Every ``(ixp, family, date)`` whose route data *store* reads."""
    seen = []
    read = store.read_snapshot

    def counting(ixp, family, date, **kwargs):
        seen.append((ixp, family, date))
        return read(ixp, family, date, **kwargs)

    monkeypatch.setattr(store, "read_snapshot", counting)
    return seen


def newest(store, family=4):
    return ("linx", family, store.snapshot_dates("linx", family)[-1])


def analyze(store, cache=None, damaged=None):
    return Study.from_store(store, ixps=("linx",), families=(4,),
                            cache=cache, damaged=damaged)


def rows(study):
    return (study.table1(), study.ixp_defined_vs_unknown(4),
            study.community_kinds(4), study.table2(4),
            study.ineffective_summary(4))


def cache_paths(store):
    return sorted((store.root / "linx" / "cache").glob("*.agg.json.gz"))


class TestCacheLifecycle:
    def test_first_analyze_populates_the_cache(self, store, reads):
        assert not cache_paths(store)
        study = analyze(store, cache=AggregateCache(store))
        assert reads == [newest(store)]  # cold: route data was loaded
        rows(study)
        assert len(cache_paths(store)) == 1
        assert store.aggregate_keys("linx")

    def test_cold_analyze_writes_every_entry_before_any_figure(
            self, store, linx_generator):
        for day in DAYS:
            store.save_snapshot(linx_generator.snapshot(6, day,
                                                        degraded=False))
        Study.from_store(store, ixps=("linx",), families=(4, 6),
                         jobs=1, cache=AggregateCache(store))
        # no figure asked for yet: one entry per missed key is on disk
        digest = store.load_dictionary("linx").digest()
        assert store.aggregate_keys("linx") == sorted(
            aggregate_cache_key(store.snapshot_digest(*newest(store, f)),
                                digest)
            for f in (4, 6))

    def test_second_analyze_hits_without_loading_routes(self, store,
                                                        reads):
        cold = analyze(store, cache=AggregateCache(store))
        cold_rows = rows(cold)
        reads.clear()
        warm = analyze(store, cache=AggregateCache(store))
        # a hit satisfies the key from the cached counters alone
        assert warm.keys() == (("linx", 4),)
        assert rows(warm) == cold_rows
        assert reads == []

    def test_recollection_misses(self, store, linx_generator, reads):
        rows(analyze(store, cache=AggregateCache(store)))
        store.save_snapshot(linx_generator.snapshot(4, 14,
                                                    degraded=False))
        reads.clear()
        study = analyze(store, cache=AggregateCache(store))
        # the newer snapshot's digest moved the key: recomputed
        assert reads == [newest(store)]
        rows(study)
        assert len(cache_paths(store)) == 2

    def test_dictionary_change_misses(self, store, reads):
        rows(analyze(store, cache=AggregateCache(store)))
        changed = store.load_dictionary("linx")
        changed.add_rule(CommunityRule(
            asn_field=65099, category=ActionCategory.BLACKHOLING,
            description="synthetic cache-busting rule"))
        store.save_dictionary("linx", changed)
        reads.clear()
        study = analyze(store, cache=AggregateCache(store))
        assert reads == [newest(store)]
        rows(study)
        assert len(cache_paths(store)) == 2

    def test_no_cache_means_no_artefacts(self, store):
        rows(analyze(store))
        assert not cache_paths(store)


class TestCacheDamage:
    @pytest.mark.parametrize("damage", [truncate, flip_trailer_bit,
                                        overwrite_garbage])
    def test_corrupt_entry_recomputes_identically(self, store, damage,
                                                  reads):
        cold_rows = rows(analyze(store, cache=AggregateCache(store)))
        damage(cache_paths(store)[0])
        reads.clear()
        study = analyze(store, cache=AggregateCache(store))
        # damage can never change the output — only force a recompute
        assert reads == [newest(store)]
        assert rows(study) == cold_rows
        # the broken entry was quarantined, never deleted, and the
        # recompute republished a fresh entry under the same key
        assert store.quarantine_records()
        assert len(cache_paths(store)) == 1

    def test_undeserialisable_payload_is_quarantined(self, store,
                                                     linx_generator):
        cold_rows = rows(analyze(store, cache=AggregateCache(store)))
        date = store.snapshot_dates("linx", 4)[-1]
        key = aggregate_cache_key(
            store.snapshot_digest("linx", 4, date),
            store.load_dictionary("linx").digest())
        # a well-enveloped entry whose aggregate no longer parses
        # (schema drift): probe must quarantine it and recompute
        store.save_aggregate("linx", key, {"version": 1, "key": key,
                                           "aggregate": {"bogus": 1}})
        study = analyze(store, cache=AggregateCache(store))
        assert rows(study) == cold_rows
        assert any(r.damage_class == "schema_drift"
                   for r in store.quarantine_records())


class TestFsckKnowsCacheArtefacts:
    def test_healthy_cache_verifies(self, store):
        rows(analyze(store, cache=AggregateCache(store)))
        report = fsck_store(store)
        assert report.clean
        assert report.verified == len(DAYS) + 2  # + dictionary + cache

    def test_damaged_cache_is_found_exactly(self, store):
        rows(analyze(store, cache=AggregateCache(store)))
        path = cache_paths(store)[0]
        truncate(path)
        report = fsck_store(store)
        assert [f.path for f in report.findings] == [
            path.relative_to(store.root).as_posix()]
        assert report.findings[0].kind == "aggregate"
        assert report.findings[0].damage_class == "truncated"

    def test_repair_quarantines_and_round_trips(self, store):
        rows(analyze(store, cache=AggregateCache(store)))
        overwrite_garbage(cache_paths(store)[0])
        assert not fsck_store(store, repair=True).clean
        assert fsck_store(store).clean
        assert not cache_paths(store)
        assert store.quarantine_records()
