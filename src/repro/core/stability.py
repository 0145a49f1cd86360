"""Appendix A stability analyses: Tables 3 and 4.

Given a series of snapshot summaries for one (IXP, family), compute the
min/max/percent-difference of members, prefixes, routes, and community
instances — daily within a week (Table 3) and across the twelve weekly
snapshots (Table 4). The paper uses these to justify analysing one
weekly (Monday) snapshot: daily variation stayed under 4%, and the
median weekly min-max difference was 5.31%.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from ..collector.snapshot import Snapshot

#: the four columns of Tables 3/4.
METRICS = ("members", "prefixes", "routes", "communities")


@dataclass(frozen=True)
class VariationRow:
    """One (IXP, family, metric) row: min, max, percent difference."""

    ixp: str
    family: int
    metric: str
    minimum: int
    maximum: int

    @property
    def diff_percent(self) -> float:
        """The paper's Diff%: (max - min) / max × 100."""
        if self.maximum == 0:
            return 0.0
        return (self.maximum - self.minimum) / self.maximum * 100.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "ixp": self.ixp,
            "family": self.family,
            "metric": self.metric,
            "min": self.minimum,
            "max": self.maximum,
            "diff_percent": self.diff_percent,
        }


def variation_rows(snapshots: Sequence[Snapshot]) -> List[VariationRow]:
    """Min/max/diff rows over a snapshot series (one IXP+family)."""
    if not snapshots:
        return []
    ixps = {s.ixp for s in snapshots}
    families = {s.family for s in snapshots}
    if len(ixps) != 1 or len(families) != 1:
        raise ValueError(
            "variation_rows needs snapshots of a single (IXP, family); "
            f"got {sorted(ixps)} x {sorted(families)}")
    return summary_variation_rows(snapshots[0].ixp, snapshots[0].family,
                                  [s.summary() for s in snapshots])


def summary_variation_rows(ixp: str, family: int,
                           summaries: Sequence[Dict[str, int]],
                           ) -> List[VariationRow]:
    """:func:`variation_rows` over :meth:`Snapshot.summary` counters
    already taken from one (IXP, family) series — the form for callers
    that keep summaries rather than decoded snapshots."""
    if not summaries:
        return []
    rows = []
    for metric in METRICS:
        values = [summary[metric] for summary in summaries]
        rows.append(VariationRow(
            ixp=ixp,
            family=family,
            metric=metric,
            minimum=min(values),
            maximum=max(values),
        ))
    return rows


def weekly_variation(daily_snapshots: Sequence[Snapshot]) -> List[
        Dict[str, object]]:
    """Table 3: variation over the seven daily snapshots of one week."""
    return [row.as_dict() for row in variation_rows(daily_snapshots)]


def period_variation(weekly_snapshots: Sequence[Snapshot]) -> List[
        Dict[str, object]]:
    """Table 4: variation over the twelve weekly snapshots."""
    return [row.as_dict() for row in variation_rows(weekly_snapshots)]


def max_diff_percent(rows: Iterable[Dict[str, object]]) -> float:
    """Worst-case Diff% over a set of rows (paper: 3.91% within the
    week, 18.03% over the period)."""
    return max((float(row["diff_percent"]) for row in rows), default=0.0)


def median_diff_percent(rows: Iterable[Dict[str, object]],
                        metric: str = "communities") -> float:
    """Median Diff% for a metric across IXPs (paper §4: 5.31% for the
    weekly min-max difference)."""
    values = [float(row["diff_percent"]) for row in rows
              if row["metric"] == metric]
    return statistics.median(values) if values else 0.0
