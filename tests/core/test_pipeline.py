"""Tests for the Study pipeline object."""

import pytest

from repro.collector import DatasetStore
from repro.core import Study, sanitised_series
from repro.ixp import get_profile
from repro.workload import ScenarioConfig, SnapshotGenerator


class TestStudyConstruction:
    def test_synthetic_builds_requested_mounts(self):
        study = Study.synthetic(ixps=("bcix",), families=(4,), scale=0.015)
        assert set(study.snapshots) == {("bcix", 4)}
        assert "bcix" in study.dictionaries

    def test_from_snapshots_infers_dictionaries(self, linx_snapshot):
        study = Study.from_snapshots([linx_snapshot])
        assert ("linx", 4) in study.snapshots
        assert len(study.dictionaries["linx"]) == \
            get_profile("linx").dictionary_size

    def test_from_store_roundtrip(self, tmp_path, linx_snapshot,
                                  linx_generator):
        store = DatasetStore(tmp_path / "ds")
        store.save_snapshot(linx_snapshot)
        store.save_dictionary("linx", linx_generator.dictionary)
        loaded = store.latest_snapshot("linx", 4)
        study = Study.from_snapshots(
            [loaded], {"linx": store.load_dictionary("linx")})
        agg_direct = Study.from_snapshots(
            [linx_snapshot]).aggregate("linx", 4)
        agg_loaded = study.aggregate("linx", 4)
        assert agg_loaded.defined_count == agg_direct.defined_count
        assert agg_loaded.std_action_count == agg_direct.std_action_count


class TestFromStore:
    @pytest.fixture()
    def store(self, tmp_path, linx_generator):
        store = DatasetStore(tmp_path / "ds")
        store.save_dictionary("linx", linx_generator.dictionary)
        for family in (4, 6):
            store.save_snapshot(linx_generator.snapshot(family,
                                                        degraded=False))
        return store

    @pytest.mark.parametrize("families,jobs", [((4, 6), 1), ((4,), 4)],
                             ids=["two-keys-jobs1", "one-key-jobs4"])
    def test_inline_reads_keep_the_decode_memo(self, store, families,
                                               jobs):
        # jobs=1, or a single key at any jobs, runs the plans inline
        # through the caller's store: its series decode memo then
        # serves the next read of each key (the Tables 3/4 pass)
        Study.from_store(store, ixps=("linx",), families=families,
                         jobs=jobs)
        assert set(store._decode_memos) == {("linx", family)
                                            for family in families}

    def test_damage_records_keep_serial_order_at_any_jobs(
            self, tmp_path, linx_generator, decix_generator):
        records = {}
        for jobs in (1, 4):
            store = DatasetStore(tmp_path / f"jobs{jobs}")
            for generator in (linx_generator, decix_generator):
                store.save_dictionary(generator.profile.key,
                                      generator.dictionary)
                store.save_snapshot(generator.snapshot(4,
                                                       degraded=False))
            [linx] = (store.root / "linx" / "v4").glob("*.json.gz")
            linx.write_bytes(linx.read_bytes()[:40])
            (store.root / "decix-fra" / "dictionary.json").write_bytes(
                b"{")
            damaged = []
            Study.from_store(store, ixps=("linx", "decix-fra"),
                             families=(4,), jobs=jobs, damaged=damaged)
            records[jobs] = [r.original for r in damaged]
        # per IXP in the order asked: its dictionary, then its keys
        assert records[1] == [
            linx.relative_to(store.root).as_posix(),
            "decix-fra/dictionary.json"]
        assert records[4] == records[1]


class TestStudyViews:
    def test_aggregate_cached(self, tiny_study):
        a = tiny_study.aggregate("linx", 4)
        b = tiny_study.aggregate("linx", 4)
        assert a is b

    def test_aggregates_paper_order(self, tiny_study):
        aggs = tiny_study.aggregates(4)
        assert [a.ixp for a in aggs] == ["decix-fra", "linx"]

    def test_family_filter(self, tiny_study):
        assert all(a.family == 6 for a in tiny_study.aggregates(6))

    def test_table1(self, tiny_study):
        rows = tiny_study.table1()
        keys = {row["key"] for row in rows}
        assert keys == {"linx", "decix-fra"}
        linx = next(r for r in rows if r["key"] == "linx")
        assert linx["paper_routes_v4"] == 315215

    def test_every_figure_view_returns_rows(self, tiny_study):
        assert tiny_study.ixp_defined_vs_unknown(4)
        assert tiny_study.community_kinds(4)
        assert tiny_study.action_vs_informational(4)
        assert tiny_study.ases_using_actions(4)
        assert tiny_study.usage_concentration(4)
        assert tiny_study.prefix_community_correlation(4)
        assert tiny_study.table2(4)
        assert tiny_study.occurrences_per_action_type(4)
        assert tiny_study.ineffective_summary(4)
        assert tiny_study.top_action_communities("linx", 4)
        assert tiny_study.top_ineffective_communities("linx", 4)
        assert tiny_study.top_culprit_ases("linx", 4)
        assert tiny_study.concentration_curve("linx", 4)


class TestSanitisedSeries:
    def test_failures_removed(self):
        generator = SnapshotGenerator(
            get_profile("bcix"),
            ScenarioConfig(scale=0.015, seed=43, failure_rate=0.2))
        report = sanitised_series(generator, 4, days=range(14))
        assert report.kept
        degraded_kept = [s for s in report.kept if s.meta.get("degraded")]
        assert not degraded_kept

    def test_no_degradation_keeps_all(self):
        generator = SnapshotGenerator(
            get_profile("bcix"), ScenarioConfig(scale=0.015, seed=43))
        report = sanitised_series(generator, 4, days=range(10),
                                  degrade=False)
        assert len(report.kept) == 10
        assert not report.removed
