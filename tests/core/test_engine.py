"""Parallel aggregation engine: fan-out must be value-identical to
the serial discipline, preserve plan order, and keep workers strictly
read-only over the store."""

import pytest

from repro.collector import DatasetStore
from repro.core.aggregate import aggregate_snapshot
from repro.core.engine import (
    AGGREGATOR_VERSION,
    AggregationPlan,
    aggregate_cache_key,
    run_plans,
)

from ..chaos.conftest import truncate

DAYS = (0, 7, 14)


@pytest.fixture()
def plans(linx_generator, decix_generator):
    built = []
    for generator in (linx_generator, decix_generator):
        for family in (4, 6):
            snapshot = generator.snapshot(family, degraded=False)
            built.append(AggregationPlan(
                key=(snapshot.ixp, family),
                dictionary=generator.dictionary,
                snapshot=snapshot))
    return built


class TestRunPlans:
    def test_parallel_matches_serial_exactly(self, plans):
        serial = run_plans(plans, jobs=1)
        parallel = run_plans(plans, jobs=4)
        assert [r.key for r in parallel] == [p.key for p in plans]
        for one, other in zip(serial, parallel):
            assert one.key == other.key
            assert one.aggregate.to_dict() == other.aggregate.to_dict()

    def test_results_come_back_in_plan_order(self, plans):
        reordered = list(reversed(plans))
        results = run_plans(reordered, jobs=3)
        assert [r.key for r in results] == [p.key for p in reordered]

    def test_single_plan_runs_inline(self, plans):
        results = run_plans(plans[:1], jobs=8)
        assert len(results) == 1
        assert results[0].aggregate.to_dict() == aggregate_snapshot(
            plans[0].snapshot, plans[0].dictionary).to_dict()

    def test_matches_direct_aggregation(self, plans):
        for result in run_plans(plans, jobs=2):
            plan = next(p for p in plans if p.key == result.key)
            expected = aggregate_snapshot(plan.snapshot, plan.dictionary)
            assert result.aggregate.to_dict() == expected.to_dict()


class TestStoreBackedPlans:
    @pytest.fixture()
    def store(self, tmp_path, linx_generator):
        store = DatasetStore(tmp_path / "ds")
        store.save_dictionary("linx", linx_generator.dictionary)
        for day in DAYS:
            store.save_snapshot(linx_generator.snapshot(
                4, day, degraded=False))
        return store

    def _plan(self, store, dictionary):
        return AggregationPlan(
            key=("linx", 4), dictionary=dictionary, store=store,
            dates=tuple(reversed(store.snapshot_dates("linx", 4))))

    def test_worker_aggregates_newest_date(self, store, linx_generator):
        plan = self._plan(store, linx_generator.dictionary)
        for jobs in (1, 2):
            result = run_plans([plan, plan], jobs=jobs)[0]
            newest = store.snapshot_dates("linx", 4)[-1]
            assert result.date == newest
            assert result.snapshot_sha256 == store.snapshot_digest(
                "linx", 4, newest)
            assert result.damaged_dates == ()
            expected = aggregate_snapshot(
                store.load_snapshot("linx", 4, newest),
                linx_generator.dictionary)
            assert result.aggregate.to_dict() == expected.to_dict()

    def test_damage_is_reported_not_quarantined(self, store,
                                                linx_generator):
        paths = sorted((store.root / "linx" / "v4").glob("*.json.gz"))
        truncate(paths[-1])
        plan = self._plan(store, linx_generator.dictionary)
        result = run_plans([plan], jobs=1)[0]
        # the worker fell back a week and only *reported* the damage:
        # the broken file is still in place for the coordinator to
        # route through the healing/quarantine path exactly once.
        dates = store.snapshot_dates("linx", 4)
        assert result.damaged_dates == (dates[-1],)
        assert result.date == dates[-2]
        assert paths[-1].exists()
        assert not store.quarantine_records()


class TestCacheKey:
    def test_every_component_moves_the_key(self):
        base = aggregate_cache_key("snap", "dict")
        assert base == aggregate_cache_key("snap", "dict")
        assert base != aggregate_cache_key("snap2", "dict")
        assert base != aggregate_cache_key("snap", "dict2")
        assert len(base) == 64
        assert AGGREGATOR_VERSION >= 1
