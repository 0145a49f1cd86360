"""End-to-end study pipeline.

Glues the substrates together the way the paper's methodology does:

1. **generate/collect** snapshots per IXP and family (synthetic stand-in
   for the LG scraping, or actual LG scraping via
   :mod:`repro.collector.campaign`);
2. **sanitise** daily series (valley rule, §3);
3. **aggregate** the analysis snapshot (latest weekly, §4);
4. expose every figure/table through one :class:`Study` object.

``Study`` is the main entry point of the public API::

    from repro import Study
    study = Study.synthetic(scale=0.05)
    fig3 = study.action_vs_informational()

Aggregation runs over independent (IXP, family) keys through
:func:`repro.core.engine.run_plans`, inline at ``jobs <= 1`` and over
worker processes above, and store-backed studies can reuse a
content-addressed :class:`~repro.core.engine.AggregateCache` so
re-analysing an unchanged store skips route data entirely. Every
``jobs`` value, cached or not, gives the same values.
"""

from __future__ import annotations

import functools
import time
import types
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..collector.integrity import IntegrityError
from ..collector.sanitation import SanitationReport, sanitise
from ..collector.snapshot import Snapshot
from ..ixp.dictionary import CommunityDictionary
from ..ixp.profiles import (
    ALL_IXPS,
    LARGE_FOUR,
    IxpProfile,
    get_profile,
)
from ..ixp.schemes import dictionary_for
from ..workload.generator import (
    FINAL_WEEKLY_DAY,
    ScenarioConfig,
    SnapshotGenerator,
)
from . import engine, favorites, ineffective, prevalence, stability, summary, usage
from .aggregate import SnapshotAggregate, aggregate_snapshot
from .classification import Classifier
from .engine import AggregateCache, AggregationPlan, run_plans

Key = Tuple[str, int]  # (ixp key, family)

#: Paper presentation order, resolved once — ``_paper_order`` used to
#: rebuild ``list(ALL_IXPS)`` and linear-scan ``.index()`` per key.
_PAPER_POSITION: Dict[str, int] = {
    ixp: position for position, ixp in enumerate(ALL_IXPS)}

_METRICS = obs.MetricSet(lambda reg: types.SimpleNamespace(
    stage_seconds=reg.histogram(
        "repro_pipeline_stage_seconds",
        "Wall-clock duration of one pipeline stage", ("stage",)),
    rows=reg.counter(
        "repro_pipeline_rows_total",
        "Rows (or objects) produced per pipeline stage", ("stage",)),
))


def _stage(name: str, rows: Optional[Callable] = None) -> Callable:
    """Meter one pipeline stage: a nested trace span plus duration
    histogram and row counter under the given stage label. Zero-cost
    (one bool check) while observability is disabled.

    ``rows`` maps the stage result to its row count; stages whose
    result is not a plain sequence pass one explicitly instead of
    leaning on a ``len()``/``TypeError`` fallback.
    """
    def decorate(func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not obs.enabled():
                return func(*args, **kwargs)
            started = time.perf_counter()
            with obs.span(f"pipeline:{name}"):
                result = func(*args, **kwargs)
            metrics = _METRICS()
            metrics.stage_seconds.labels(name).observe(
                time.perf_counter() - started)
            count = len(result) if rows is None else rows(result)
            metrics.rows.labels(name).inc(count)
            return result
        return wrapper
    return decorate


def _paper_order(key: Key) -> Tuple[int, int]:
    ixp, family = key
    return (_PAPER_POSITION.get(ixp, len(_PAPER_POSITION)), family)


def _study_rows(study: "Study") -> int:
    return len(study.keys())


def effective_dictionary(store, ixp: str,
                         damaged: Optional[List] = None,
                         ) -> CommunityDictionary:
    """The dictionary classification uses for *ixp*: the stored one
    when it verifies, else the IXP's documented scheme. The store
    quarantines a damaged dictionary; pass a list as ``damaged`` to
    receive its record."""
    try:
        return store.load_dictionary(ixp)
    except FileNotFoundError:
        pass
    except IntegrityError as error:
        if damaged is not None and error.record is not None:
            damaged.append(error.record)
    return dictionary_for(get_profile(ixp))


@dataclass
class Study:
    """A loaded study: one analysis snapshot per (IXP, family), plus the
    dictionaries needed to classify them.

    ``jobs`` bounds aggregation concurrency (1 = serial, the default).
    Only :meth:`synthetic` and :meth:`from_snapshots` keep route tables
    in ``snapshots``; a :meth:`from_store` study holds aggregates alone,
    so everything downstream of aggregation keys itself off
    :meth:`keys`, never ``snapshots``.
    """

    snapshots: Dict[Key, Snapshot] = field(default_factory=dict)
    dictionaries: Dict[str, CommunityDictionary] = field(default_factory=dict)
    jobs: int = 1
    _aggregates: Dict[Key, SnapshotAggregate] = field(default_factory=dict)
    #: memoised paper-ordered key tuple + the key set it was built from.
    _key_order: Optional[Tuple[Key, ...]] = field(default=None, repr=False)
    _key_source: frozenset = field(default=frozenset(), repr=False)

    # -- construction ----------------------------------------------------

    @classmethod
    @_stage("generate", rows=_study_rows)
    def synthetic(cls, ixps: Sequence[str] = LARGE_FOUR,
                  families: Sequence[int] = (4, 6),
                  scale: float = 0.05,
                  seed: int = 20211004,
                  day: int = FINAL_WEEKLY_DAY,
                  jobs: int = 1) -> "Study":
        """Build a study from the synthetic generator (no I/O)."""
        study = cls(jobs=jobs)
        config = ScenarioConfig(scale=scale, seed=seed)
        for ixp_key in ixps:
            profile = get_profile(ixp_key)
            generator = SnapshotGenerator(profile, config)
            study.dictionaries[ixp_key] = generator.dictionary
            for family in families:
                study.snapshots[(ixp_key, family)] = generator.snapshot(
                    family, day, degraded=False)
        return study

    @classmethod
    @_stage("load_store", rows=_study_rows)
    def from_store(cls, store, ixps: Sequence[str] = LARGE_FOUR,
                   families: Sequence[int] = (4, 6),
                   damaged: Optional[List] = None,
                   jobs: int = 1,
                   cache: Optional[AggregateCache] = None) -> "Study":
        """Build a study from a :class:`~repro.collector.store.DatasetStore`,
        degrading gracefully over damaged data.

        A damaged latest snapshot is quarantined by the store and the
        next-newest date is analysed instead; a damaged dictionary
        falls back to the IXP's documented scheme. Pass a list as
        ``damaged`` to receive the quarantine records, in the order a
        serial read meets them — the analysis treats those artefacts
        exactly like missing collection days.

        With a ``cache``, keys whose newest snapshot + dictionary digest
        match a stored aggregate skip snapshot loading entirely. Every
        other key becomes one store-backed plan for
        :func:`~repro.core.engine.run_plans`, inline at ``jobs <= 1``
        and over worker processes above. Plans read without healing;
        this process replays any damage through the store's normal
        quarantine path and writes each new aggregate to the cache
        before returning, so on-disk effects do not depend on ``jobs``.
        The study keeps the aggregates only, never the route tables.
        """
        study = cls(jobs=jobs)
        effective: Dict[str, CommunityDictionary] = {}
        found: Dict[str, List] = {}  # damage records per IXP
        plans: List[AggregationPlan] = []
        for ixp in ixps:
            dictionary = effective_dictionary(
                store, ixp, found.setdefault(ixp, []))
            effective[ixp] = dictionary
            for family in families:
                key = (ixp, family)
                hit = (cache.probe(ixp, family, dictionary)
                       if cache is not None else None)
                if hit is not None:
                    study._aggregates[key] = hit
                    continue
                plans.append(AggregationPlan(
                    key=key, dictionary=dictionary, store=store,
                    dates=tuple(reversed(store.snapshot_dates(*key)))))

        for result in run_plans(plans, jobs=jobs):
            ixp, family = result.key
            for date in result.damaged_dates:
                # the plan saw damage read-only; replay the read
                # through the healing path so quarantine + record
                # happen exactly once, in this process.
                try:
                    store.load_snapshot(ixp, family, date)
                except FileNotFoundError:
                    pass
                except IntegrityError as error:
                    if error.record is not None:
                        found[ixp].append(error.record)
            if result.aggregate is None:
                continue
            study._aggregates[result.key] = result.aggregate
            if cache is not None:
                cache.put(ixp, family, result.date,
                          result.snapshot_sha256, effective[ixp],
                          result.aggregate)

        if damaged is not None:
            for records in found.values():
                damaged.extend(records)
        for ixp, _family in study.keys():
            study.dictionaries.setdefault(ixp, effective[ixp])
        return study

    @classmethod
    @_stage("load", rows=_study_rows)
    def from_snapshots(cls, snapshots: Iterable[Snapshot],
                       dictionaries: Optional[
                           Dict[str, CommunityDictionary]] = None,
                       jobs: int = 1) -> "Study":
        """Build a study from already-collected snapshots (e.g. loaded
        from a :class:`~repro.collector.store.DatasetStore`)."""
        study = cls(jobs=jobs)
        for snapshot in snapshots:
            study.snapshots[(snapshot.ixp, snapshot.family)] = snapshot
            if dictionaries and snapshot.ixp in dictionaries:
                study.dictionaries[snapshot.ixp] = dictionaries[snapshot.ixp]
            elif snapshot.ixp not in study.dictionaries:
                study.dictionaries[snapshot.ixp] = dictionary_for(
                    get_profile(snapshot.ixp))
        return study

    # -- aggregation ---------------------------------------------------

    def keys(self) -> Tuple[Key, ...]:
        """All (IXP, family) keys this study can analyse — loaded
        snapshots plus store-loaded aggregates — in paper order.
        The sort is memoised and invalidated when the key set changes."""
        current = frozenset(self.snapshots) | frozenset(self._aggregates)
        if self._key_order is None or self._key_source != current:
            self._key_order = tuple(sorted(current, key=_paper_order))
            self._key_source = current
        return self._key_order

    @_stage("aggregate", rows=lambda _aggregate: 1)
    def aggregate(self, ixp: str, family: int) -> SnapshotAggregate:
        key = (ixp, family)
        if key not in self._aggregates:
            self._aggregates[key] = aggregate_snapshot(
                self.snapshots[key], self.dictionaries[ixp])
        return self._aggregates[key]

    def aggregates(self, family: Optional[int] = None,
                   ixps: Optional[Sequence[str]] = None,
                   ) -> List[SnapshotAggregate]:
        wanted = [key for key in self.keys()
                  if (family is None or key[1] == family)
                  and (ixps is None or key[0] in ixps)]
        plans = [AggregationPlan(key=key,
                                 dictionary=self.dictionaries[key[0]],
                                 snapshot=self.snapshots[key])
                 for key in wanted if key not in self._aggregates]
        for result in run_plans(plans, jobs=self.jobs):
            self._aggregates[result.key] = result.aggregate
        return [self.aggregate(*key) for key in wanted]

    # -- figures / tables ------------------------------------------------

    @_stage("table1")
    def table1(self) -> List[Dict[str, object]]:
        return summary.summary_table(self._population())

    def _population(self) -> List[object]:
        """Per-key population facts for Table 1: the snapshot when
        loaded, else the aggregate (same counts, no routes)."""
        return [self.snapshots.get(key) or self._aggregates[key]
                for key in self.keys()]

    @_stage("fig1")
    def ixp_defined_vs_unknown(self, family: Optional[int] = None):
        """Fig. 1 rows."""
        return prevalence.ixp_defined_vs_unknown(self.aggregates(family))

    @_stage("fig2")
    def community_kinds(self, family: Optional[int] = None):
        """Fig. 2 rows."""
        return prevalence.community_kinds(self.aggregates(family))

    @_stage("fig3")
    def action_vs_informational(self, family: Optional[int] = None):
        """Fig. 3 rows."""
        return prevalence.action_vs_informational(self.aggregates(family))

    @_stage("fig4a")
    def ases_using_actions(self, family: Optional[int] = None):
        """Fig. 4a rows."""
        return usage.ases_using_actions(self.aggregates(family))

    @_stage("fig4b")
    def usage_concentration(self, family: Optional[int] = None):
        """Fig. 4b checkpoint rows."""
        return usage.usage_concentration(self.aggregates(family))

    @_stage("fig4b_curve")
    def concentration_curve(self, ixp: str, family: int = 4):
        """Fig. 4b full curve for one IXP."""
        return usage.usage_concentration_curve(self.aggregate(ixp, family))

    @_stage("fig4c")
    def prefix_community_correlation(self, family: Optional[int] = None):
        """Fig. 4c summary rows."""
        return usage.prefix_community_correlation(self.aggregates(family))

    @_stage("table2")
    def table2(self, family: Optional[int] = None):
        return favorites.ases_per_action_type(self.aggregates(family))

    @_stage("occurrences")
    def occurrences_per_action_type(self, family: Optional[int] = None):
        return favorites.occurrences_per_action_type(self.aggregates(family))

    @_stage("fig5")
    def top_action_communities(self, ixp: str, family: int = 4,
                               limit: int = 20):
        """Fig. 5 rows for one IXP."""
        return favorites.top_action_communities(
            self.aggregate(ixp, family), self.dictionaries[ixp], limit)

    @_stage("ineffective")
    def ineffective_summary(self, family: Optional[int] = None):
        """§5.5 headline shares."""
        return ineffective.ineffective_summary(self.aggregates(family))

    @_stage("fig6")
    def top_ineffective_communities(self, ixp: str, family: int = 4,
                                    limit: int = 20):
        """Fig. 6 rows for one IXP."""
        return ineffective.top_ineffective_communities(
            self.aggregate(ixp, family), self.dictionaries[ixp], limit)

    @_stage("fig7")
    def top_culprit_ases(self, ixp: str, family: int = 4, limit: int = 10):
        """Fig. 7 rows for one IXP."""
        return ineffective.top_culprit_ases(
            self.aggregate(ixp, family), limit)


@_stage("sanitise", rows=lambda report: 1)
def sanitised_series(generator: SnapshotGenerator, family: int,
                     days: Sequence[int],
                     degrade: bool = True) -> SanitationReport:
    """Generate a daily series (optionally with failure injection) and
    run the §3 sanitation over it."""
    snapshots = [generator.snapshot(family, day,
                                    degraded=None if degrade else False)
                 for day in days]
    return sanitise(snapshots)
