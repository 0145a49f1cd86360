"""Tests for the Appendix A stability analyses (Tables 3 and 4)."""

import pytest

from repro.collector.snapshot import Snapshot
from repro.core.stability import (
    max_diff_percent,
    median_diff_percent,
    period_variation,
    summary_variation_rows,
    variation_rows,
    weekly_variation,
)


def snapshot(date, routes=0):
    from repro.bgp.aspath import AsPath
    from repro.bgp.route import Route
    return Snapshot(
        ixp="linx", family=4, captured_on=date,
        routes=[Route(prefix=f"20.0.{i}.0/24", next_hop="192.0.2.1",
                      as_path=AsPath.from_asns([60001]), peer_asn=60001)
                for i in range(routes)])


class TestVariationRows:
    def test_four_metrics(self):
        rows = variation_rows([snapshot("2021-09-27", 10),
                               snapshot("2021-09-28", 12)])
        assert [r.metric for r in rows] == [
            "members", "prefixes", "routes", "communities"]

    def test_diff_percent_definition(self):
        rows = variation_rows([snapshot("2021-09-27", 96),
                               snapshot("2021-09-28", 100)])
        routes_row = next(r for r in rows if r.metric == "routes")
        assert routes_row.minimum == 96 and routes_row.maximum == 100
        assert routes_row.diff_percent == pytest.approx(4.0)

    def test_zero_max_is_zero_diff(self):
        rows = variation_rows([snapshot("2021-09-27", 0)])
        assert all(r.diff_percent == 0.0 for r in rows)

    def test_mixed_series_rejected(self):
        other = Snapshot(ixp="amsix", family=4, captured_on="2021-09-27")
        with pytest.raises(ValueError):
            variation_rows([snapshot("2021-09-27"), other])

    def test_empty(self):
        assert variation_rows([]) == []

    def test_summary_form_gives_the_same_rows(self):
        series = [snapshot("2021-09-27", 96), snapshot("2021-09-28", 100),
                  snapshot("2021-09-29", 0)]
        assert summary_variation_rows(
            "linx", 4, [s.summary() for s in series]) == \
            variation_rows(series)
        assert summary_variation_rows("linx", 4, []) == []


class TestHelpers:
    def test_max_diff(self):
        rows = weekly_variation([snapshot("2021-09-27", 90),
                                 snapshot("2021-09-28", 100)])
        assert max_diff_percent(rows) == pytest.approx(10.0)

    def test_median_diff_for_metric(self):
        rows = [
            {"metric": "communities", "diff_percent": 2.0},
            {"metric": "communities", "diff_percent": 8.0},
            {"metric": "communities", "diff_percent": 4.0},
            {"metric": "routes", "diff_percent": 99.0},
        ]
        assert median_diff_percent(rows) == 4.0

    def test_median_empty(self):
        assert median_diff_percent([]) == 0.0


class TestWithGenerator:
    """Reproduce the paper's Appendix A headline properties.

    Series generation is the expensive part, so the daily and weekly
    series are class-scoped fixtures built once and shared by every
    assertion (they are never mutated).
    """

    @pytest.fixture(scope="class")
    def generator(self):
        from repro.ixp import get_profile
        from repro.workload import ScenarioConfig, SnapshotGenerator
        # 0.02 is the smallest scale where the Appendix A variation
        # bands still hold with margin (checked at 0.05/0.03/0.02:
        # daily 3.45%, weekly ~7%) — series generation dominates this
        # file's runtime.
        return SnapshotGenerator(get_profile("netnod"),
                                 ScenarioConfig(scale=0.02, seed=41))

    @pytest.fixture(scope="class")
    def daily_series(self, generator):
        return list(generator.final_week_series(4))

    @pytest.fixture(scope="class")
    def weekly_series(self, generator):
        return list(generator.weekly_series(4))

    def test_daily_variation_under_paper_bound(self, daily_series):
        """Table 3: within a week, variation stayed under ~4%."""
        rows = weekly_variation(daily_series)
        assert max_diff_percent(rows) < 6.0  # paper max was 3.91%

    def test_weekly_variation_moderate(self, weekly_series):
        """Table 4: over twelve weeks, growth is visible but bounded
        (paper max 18.03%, most under 10%)."""
        rows = period_variation(weekly_series)
        worst = max_diff_percent(rows)
        assert 0.5 < worst < 20.0

    def test_weekly_worse_than_daily(self, daily_series, weekly_series):
        daily = max_diff_percent(weekly_variation(daily_series))
        weekly = max_diff_percent(period_variation(weekly_series))
        assert weekly > daily
