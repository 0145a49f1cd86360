"""Parallel, cache-backed analysis engine.

The §4/§5 analyses decompose over independent ``(IXP, family)`` keys:
each key's :class:`~repro.core.aggregate.SnapshotAggregate` depends
only on that key's snapshot and dictionary. This module exploits that
twice:

* :func:`run_plans` is the one way a key is aggregated: at ``jobs <= 1``
  it runs each plan inline, otherwise it fans the plans over a bounded
  ``ProcessPoolExecutor`` (``jobs`` workers) and reassembles results in
  submission order, so the outcome is value-identical either way.
  Plans are strictly **read-only**: they verify snapshots without
  healing and report damaged dates back, and the coordinating process
  re-drives the store's normal quarantine path — manifest and
  quarantine writes stay single-process, exactly like the collection
  engine's coordinator model.
* :class:`AggregateCache` persists computed aggregates in the
  :class:`~repro.collector.store.DatasetStore` under a key derived
  from the snapshot envelope's sha256, the dictionary digest, and
  :data:`AGGREGATOR_VERSION`. A probe costs two manifest lookups — no
  route data is read — so an analyze over an unchanged store skips
  both snapshot loading and aggregation. Cache entries ride the
  integrity envelope machinery: atomic writes, fsck awareness, and
  quarantine-on-damage falling back to recompute.

Worker processes are forked, so plans (snapshots, dictionaries, the
caller's store) reach them by inherited memory, not pickling; only the
compact aggregates travel back. Platforms without ``fork`` fall back to
inline serial execution — same values, no parallelism.
"""

from __future__ import annotations

import hashlib
import time
import types
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..collector.integrity import IntegrityError, SchemaDriftError
from ..collector.snapshot import Snapshot
from ..ixp.dictionary import CommunityDictionary
from .aggregate import SnapshotAggregate, aggregate_snapshot

if TYPE_CHECKING:
    from ..collector.store import DatasetStore

Key = Tuple[str, int]  # (ixp key, family)

#: Version of the aggregation semantics baked into cache keys: bump it
#: whenever :func:`~repro.core.aggregate.aggregate_snapshot` changes
#: what it counts, and every stale cache entry misses automatically.
AGGREGATOR_VERSION = 2  # 2: filtered-route rejects excluded from counters

_METRICS = obs.MetricSet(lambda reg: types.SimpleNamespace(
    cache_events=reg.counter(
        "repro_analysis_cache_events_total",
        "Aggregate-cache probe outcomes "
        "(hit / miss / damaged / stale)", ("event",)),
    key_seconds=reg.histogram(
        "repro_analysis_key_seconds",
        "Wall-clock seconds aggregating one (IXP, family) key",
        ("ixp",)),
    inflight=reg.gauge(
        "repro_analysis_inflight_jobs",
        "Aggregation tasks currently in flight").labels(),
    tasks=reg.counter(
        "repro_analysis_tasks_total",
        "Aggregation tasks executed, by mode (inline / pooled)",
        ("mode",)),
))


def aggregate_cache_key(snapshot_sha256: str,
                        dictionary_sha256: str) -> str:
    """The content address of one cached aggregate: any change to the
    snapshot bytes, the dictionary, or the aggregator version moves
    the key, so stale entries can never be read — only orphaned."""
    material = (f"{AGGREGATOR_VERSION}:{snapshot_sha256}:"
                f"{dictionary_sha256}")
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


@dataclass
class AggregationPlan:
    """One unit of engine work: aggregate one ``(IXP, family)`` key.

    Two task shapes share the dataclass:

    * **in-memory** — ``snapshot`` is set; the plan only aggregates;
    * **store-backed** — ``store``/``dates`` are set; the plan walks the
      candidate dates newest-first through the caller's store, loads +
      verifies (without healing) the first intact one, and aggregates
      it. Inline, the read goes through that store itself (its series
      decode memo carries over to later reads); a forked worker reads
      its inherited copy.
    """

    key: Key
    dictionary: CommunityDictionary
    snapshot: Optional[Snapshot] = None
    store: Optional["DatasetStore"] = None
    #: candidate snapshot dates, newest first (store-backed plans).
    dates: Tuple[str, ...] = ()


@dataclass
class PlanResult:
    """What one plan produced, reassembled in plan order."""

    key: Key
    aggregate: Optional[SnapshotAggregate] = None
    #: collection date actually aggregated (store-backed plans).
    date: Optional[str] = None
    #: envelope payload digest of the aggregated snapshot.
    snapshot_sha256: Optional[str] = None
    #: newer dates that failed verification, newest first — the
    #: coordinator re-reads these through the healing path so the
    #: quarantine happens exactly once, in one process.
    damaged_dates: Tuple[str, ...] = ()
    elapsed: float = 0.0


#: Plans handed to forked workers by inherited memory (fork happens
#: after this is set, so child processes see it without pickling).
_FORK_PLANS: Sequence[AggregationPlan] = ()


def _execute_plan(plan: AggregationPlan) -> PlanResult:
    result = PlanResult(key=plan.key)
    started = time.perf_counter()
    if plan.snapshot is not None:
        result.aggregate = aggregate_snapshot(plan.snapshot,
                                              plan.dictionary)
    else:
        damaged: List[str] = []
        ixp, family = plan.key
        for date in plan.dates:
            try:
                snapshot, digest = plan.store.read_snapshot(
                    ixp, family, date, heal=False)
            except FileNotFoundError:
                continue
            except IntegrityError:
                damaged.append(date)
                continue
            result.aggregate = aggregate_snapshot(snapshot,
                                                  plan.dictionary)
            result.date = date
            result.snapshot_sha256 = digest
            break
        result.damaged_dates = tuple(damaged)
    result.elapsed = time.perf_counter() - started
    return result


def _execute_indexed(index: int) -> Tuple[int, PlanResult]:
    """Worker entry point: resolve the plan from forked memory."""
    return index, _execute_plan(_FORK_PLANS[index])


def _fork_context():
    try:
        import multiprocessing
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def run_plans(plans: Sequence[AggregationPlan],
              jobs: int = 1) -> List[PlanResult]:
    """Execute *plans* and return their results in plan order.

    ``jobs <= 1`` (or a single plan, or a platform without ``fork``)
    runs the exact same worker function inline; parallel and serial
    runs share one code path per plan and are value-identical.
    """
    global _FORK_PLANS
    metrics = _METRICS()
    context = _fork_context() if jobs > 1 and len(plans) > 1 else None
    if context is None:
        results = []
        for plan in plans:
            metrics.inflight.inc()
            try:
                result = _execute_plan(plan)
            finally:
                metrics.inflight.dec()
            metrics.tasks.labels("inline").inc()
            metrics.key_seconds.labels(plan.key[0]).observe(
                result.elapsed)
            results.append(result)
        return results

    ordered: List[Optional[PlanResult]] = [None] * len(plans)
    _FORK_PLANS = plans
    try:
        workers = min(jobs, len(plans))
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=context) as pool:
            futures = []
            for index in range(len(plans)):
                metrics.inflight.inc()
                futures.append(pool.submit(_execute_indexed, index))
            for future in futures:
                try:
                    index, result = future.result()
                finally:
                    metrics.inflight.dec()
                metrics.tasks.labels("pooled").inc()
                metrics.key_seconds.labels(
                    plans[index].key[0]).observe(result.elapsed)
                ordered[index] = result
    finally:
        _FORK_PLANS = ()
    return [result for result in ordered if result is not None]


class AggregateCache:
    """Content-addressed :class:`SnapshotAggregate` cache over a
    :class:`~repro.collector.store.DatasetStore`.

    Keying: ``sha256(version : snapshot-digest : dictionary-digest)``.
    Invalidation is purely by construction — re-collecting a snapshot,
    editing the dictionary, or bumping :data:`AGGREGATOR_VERSION`
    changes the key, so the next analyze misses and recomputes; the
    orphaned entry is just dead weight for fsck to keep verifying.

    A probe inspects the newest snapshot *date* via the manifest only;
    a hit deserialises the compact cached counters and never touches
    route data. Damage in a cache entry (envelope failure or payload
    drift) quarantines the entry and reports a miss — corruption can
    therefore never change analysis output, only slow it down.
    """

    def __init__(self, store) -> None:
        self.store = store

    def probe(self, ixp: str, family: int,
              dictionary: CommunityDictionary,
              ) -> Optional[SnapshotAggregate]:
        """The cached aggregate for the newest collected snapshot of
        ``(ixp, family)`` under *dictionary*, or None on any miss."""
        metrics = _METRICS()
        dates = self.store.snapshot_dates(ixp, family)
        if not dates:
            metrics.cache_events.labels("miss").inc()
            return None
        digest = self.store.snapshot_digest(ixp, family, dates[-1])
        if digest is None:
            # the manifest cannot vouch for the newest file (legacy
            # store or unrecorded rewrite): treat as stale, recompute.
            metrics.cache_events.labels("stale").inc()
            return None
        key = aggregate_cache_key(digest, dictionary.digest())
        if not self.store.has_aggregate(ixp, key):
            metrics.cache_events.labels("miss").inc()
            return None
        try:
            payload = self.store.load_aggregate(ixp, key)
            aggregate = SnapshotAggregate.from_dict(
                payload["aggregate"])  # type: ignore[arg-type]
        except IntegrityError:
            # quarantined by the store; recompute from route data
            metrics.cache_events.labels("damaged").inc()
            return None
        except (KeyError, TypeError, ValueError) as error:
            drift = SchemaDriftError(
                f"aggregate cache payload does not deserialise: "
                f"{error}")
            self.store.quarantine_aggregate(ixp, key, drift)
            metrics.cache_events.labels("damaged").inc()
            return None
        metrics.cache_events.labels("hit").inc()
        return aggregate

    def put(self, ixp: str, family: int, date: str,
            snapshot_sha256: str, dictionary: CommunityDictionary,
            aggregate: SnapshotAggregate) -> None:
        """Persist one computed aggregate under its content address."""
        key = aggregate_cache_key(snapshot_sha256, dictionary.digest())
        self.store.save_aggregate(ixp, key, {
            "version": AGGREGATOR_VERSION,
            "key": key,
            "ixp": ixp,
            "family": family,
            "captured_on": date,
            "snapshot_sha256": snapshot_sha256,
            "dictionary_sha256": dictionary.digest(),
            "aggregate": aggregate.to_dict(),
        })
