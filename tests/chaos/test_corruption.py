"""Corruption chaos: damage artefacts in every way the taxonomy
names, then assert fsck finds *exactly* that damage and the analysis
degrades to missing-day semantics instead of crashing."""

import pytest

from repro.collector import DatasetStore, fsck_store
from repro.core import Study
from repro.core.engine import AggregateCache

from .conftest import flip_trailer_bit, overwrite_garbage, truncate

DAYS = (0, 7, 14, 21, 28)


@pytest.fixture()
def store(tmp_path, linx_generator):
    store = DatasetStore(tmp_path / "dataset")
    store.save_dictionary("linx", linx_generator.dictionary)
    for day in DAYS:
        store.save_snapshot(linx_generator.snapshot(4, day,
                                                    degraded=False))
    return store


def snapshot_paths(store):
    return sorted((store.root / "linx" / "v4").glob("*.json.gz"))


class TestFsckFindsExactlyTheDamage:
    def test_mixed_corruption_is_fully_classified(self, store):
        paths = snapshot_paths(store)
        truncate(paths[0])
        flip_trailer_bit(paths[1])
        overwrite_garbage(paths[2])
        paths[3].unlink()

        report = fsck_store(store)
        counts = {cls: count for cls, count in report.counts.items()
                  if count}
        assert counts == {"truncated": 1, "checksum_mismatch": 1,
                          "malformed": 1, "missing_file": 1}
        flagged = {f.path for f in report.findings}
        assert flagged == {p.relative_to(store.root).as_posix()
                          for p in paths[:4]}

    def test_repair_round_trip(self, store):
        paths = snapshot_paths(store)
        truncate(paths[0])
        overwrite_garbage(paths[2])

        assert not fsck_store(store, repair=True).clean
        after = fsck_store(store)
        assert after.clean, after.format_summary()
        # the two damaged files live on in quarantine with records
        records = store.quarantine_records()
        assert len(records) == 2
        for record in records:
            assert (store.root / record.moved_to).exists()
        # the three healthy days still load and verify
        assert len(list(store.iter_snapshots("linx", 4))) == 3

    def test_untouched_store_stays_clean(self, store):
        report = fsck_store(store)
        assert report.clean
        assert report.verified == len(DAYS) + 1  # + dictionary


class TestCacheCorruptionMatrix:
    """The §4/§5 corruption matrix extended to aggregate-cache
    artefacts: cache damage is found exactly, co-exists with snapshot
    damage, and can never alter analysis output."""

    @pytest.fixture()
    def warm_store(self, store):
        # from_store writes the cache entry before it returns
        Study.from_store(store, ixps=("linx",), families=(4,),
                         cache=AggregateCache(store))
        return store

    def cache_paths(self, store):
        return sorted((store.root / "linx" / "cache")
                      .glob("*.agg.json.gz"))

    def test_mixed_damage_with_cache_is_fully_classified(
            self, warm_store):
        snapshot = snapshot_paths(warm_store)[0]
        cache_entry = self.cache_paths(warm_store)[0]
        truncate(snapshot)
        flip_trailer_bit(cache_entry)

        report = fsck_store(warm_store)
        counts = {cls: count for cls, count in report.counts.items()
                  if count}
        assert counts == {"truncated": 1, "checksum_mismatch": 1}
        by_path = {f.path: f.kind for f in report.findings}
        assert by_path == {
            snapshot.relative_to(warm_store.root).as_posix(): "snapshot",
            cache_entry.relative_to(warm_store.root).as_posix():
                "aggregate"}

    @pytest.mark.parametrize("damage", [truncate, flip_trailer_bit,
                                        overwrite_garbage])
    def test_cache_damage_never_changes_output(self, warm_store, damage):
        def run():
            study = Study.from_store(warm_store, ixps=("linx",),
                                     families=(4,),
                                     cache=AggregateCache(warm_store))
            return (study.table1(), study.ixp_defined_vs_unknown(4),
                    study.action_vs_informational(4),
                    study.table2(4), study.ineffective_summary(4))

        pristine = run()
        damage(self.cache_paths(warm_store)[0])
        assert run() == pristine
        # the damaged entry went to quarantine and a fresh, healthy
        # one was republished: a follow-up fsck is clean again
        assert warm_store.quarantine_records()
        assert fsck_store(warm_store).clean

    def test_repair_quarantines_cache_and_round_trips(self, warm_store):
        overwrite_garbage(self.cache_paths(warm_store)[0])
        first = fsck_store(warm_store, repair=True)
        assert [f.kind for f in first.findings] == ["aggregate"]
        assert [f.action for f in first.findings] == ["quarantined"]
        assert fsck_store(warm_store).clean


class TestAnalysisDegradesGracefully:
    def test_damaged_latest_falls_back_a_week(self, store,
                                              linx_generator):
        latest = snapshot_paths(store)[-1]
        truncate(latest)
        damaged = []
        study = Study.from_store(store, ixps=("linx",), families=(4,),
                                 damaged=damaged)
        # the analysis ran over the previous collection day
        assert study.aggregate("linx", 4).captured_on \
            == linx_generator.snapshot(4, DAYS[-2]).captured_on
        assert [r.damage_class for r in damaged] == ["truncated"]
        # and the file was quarantined, not deleted
        assert not latest.exists()
        assert store.quarantine_records()

    def test_damaged_dictionary_falls_back_to_scheme(self, store):
        overwrite_garbage(store.root / "linx" / "dictionary.json")
        damaged = []
        study = Study.from_store(store, ixps=("linx",), families=(4,),
                                 damaged=damaged)
        # analysis still classifies via the IXP's documented scheme
        assert study.dictionaries["linx"] is not None
        assert study.table1()
        assert [r.damage_class for r in damaged] == ["malformed"]

    def test_sanitation_treats_quarantined_as_missing(self, store):
        from repro.collector import sanitise_store

        truncate(snapshot_paths(store)[1])
        report = sanitise_store(store, "linx", 4)
        assert len(report.quarantined) == 1
        assert len(report.kept) + len(report.removed) == len(DAYS) - 1
