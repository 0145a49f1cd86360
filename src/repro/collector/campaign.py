"""Fault-tolerant collection campaigns.

The paper's twelve-week collection "was subject to communication
failures because of LG instability and/or query rate limits" (§3) —
13.5% of snapshots had to be discarded in sanitation. This module is
the campaign layer that makes such a collection survivable: it drives
multi-(IXP, family) scraping with

* **per-peer retry budgets** — a flaky peer is retried a bounded
  number of times, then recorded with a failure class instead of
  aborting the snapshot;
* **a failure taxonomy** — every lost peer is counted as
  ``rate_limited`` / ``lg_outage`` / ``timeout`` /
  ``malformed_payload`` (from the client's typed errors), so campaign
  reports say *why* data is missing;
* **per-snapshot deadlines** — a stalling LG cannot eat the whole
  collection day; the target is parked resumable instead;
* **checkpointing** — after each collected peer the partial snapshot
  is persisted through :class:`~repro.collector.store.DatasetStore`,
  so a crashed or deadline-parked campaign re-run with ``resume=True``
  picks up at the first un-collected peer without re-fetching anything.
  The checkpoint is an append-only journal
  (:mod:`repro.collector.journal`): each flush writes only the peers
  gained since the previous one, each peer encoded once (see
  :class:`_PeerLedger`);
* **circuit breakers** — one per (ixp, family) mount (via
  :class:`~repro.lg.breaker.BreakerRegistry`), so a dead LG is probed,
  not hammered — refusals surface as their own ``breaker_open``
  failure class;
* **self-measurement** — peers/failures/checkpoints/resumes are
  metered under ``repro_campaign_*`` (see :mod:`repro.obs`), every
  checkpoint carries a metrics snapshot, and a finished run writes a
  JSON run report through the store;
* **graceful shutdown** — :func:`install_shutdown_handlers` turns
  SIGINT/SIGTERM into a flush-checkpoint-then-park path: the campaign
  finishes the in-flight peer, persists a checkpoint, marks the run
  interrupted (CLI exit 2), and a later ``--resume`` continues it.
  A second signal falls through to the previous handler (a hard stop
  for an operator mashing Ctrl-C);
* **crash-safety** — every store write is atomic and checksummed
  (see :mod:`repro.collector.integrity`); resume keeps the verified
  prefix of a checkpoint journal, the store quarantines a damaged tail,
  and only the peers in it are fetched again;
* **one concurrent engine** — peers are fetched either serially
  through the sync client (``io="serial"``, the default: the paper's
  sequential single-connection discipline and the reference the
  determinism suites compare against) or page-parallel on one
  selectors event loop per mount (``io="async"``, see
  :mod:`repro.lg.aio`). Targets run one after another; process-level
  scale is :mod:`repro.collector.dispatch`. Peers are taken from an
  ASN-sorted list and reassembled in that order, so snapshots are
  **byte-identical** across engines; checkpoints still mean "peers
  collected so far", and a shutdown/deadline park stops starting
  peers, drains the in-flight ones, and checkpoints them too.

Clock and sleep are injectable: tests drive deadlines and breaker
cooldowns with a fake clock and never block.
"""

from __future__ import annotations

import signal as _signal
import threading
import time
import types
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, List, Optional, Sequence, Set,
                    Tuple)

from .. import obs
from ..bgp.route import Route, RouteDecodeMemo
from ..ixp.member import Member, MemberRole
from ..lg.aio import AsyncLookingGlassClient
from ..lg.api import DEFAULT_PAGE_SIZE, NeighborSummary
from ..lg.breaker import BreakerRegistry
from ..lg.client import (
    FAILURE_CLASSES,
    CircuitOpenError,
    LookingGlassClient,
    LookingGlassError,
    TransientError,
)
from .integrity import EncodedJSON, IntegrityError, QuarantineRecord
from .scraper import utc_today
from .snapshot import Snapshot
from .store import DatasetStore

#: version 2: checkpoints are segment journals. A version-1 single
#: file is discarded at resume (``version_drift``).
CHECKPOINT_VERSION = 2

_METRICS = obs.MetricSet(lambda reg: types.SimpleNamespace(
    peers=reg.counter(
        "repro_campaign_peers_total",
        "Campaign peers by outcome (collected / failed / resumed)",
        ("ixp", "family", "outcome")),
    failures=reg.counter(
        "repro_campaign_failures_total",
        "Peers lost after the whole retry budget, by failure class",
        ("ixp", "family", "class")),
    checkpoints=reg.counter(
        "repro_campaign_checkpoints_total",
        "Checkpoint writes", ("ixp", "family")),
    checkpoints_rejected=reg.counter(
        "repro_campaign_checkpoints_rejected_total",
        "Parked checkpoints discarded at resume instead of merged",
        ("ixp", "family", "reason")),
    segments_dropped=reg.counter(
        "repro_campaign_checkpoint_segments_dropped_total",
        "Checkpoint journal segments quarantined at resume, after the "
        "verified prefix", ("ixp", "family", "reason")),
    resumes=reg.counter(
        "repro_campaign_resume_total",
        "Targets restarted from a checkpoint", ("ixp", "family")),
    interruptions=reg.counter(
        "repro_campaign_interruptions_total",
        "Graceful-shutdown requests honoured mid-campaign").labels(),
    targets=reg.counter(
        "repro_campaign_targets_total",
        "Campaign targets finished, by terminal status", ("status",)),
    target_seconds=reg.histogram(
        "repro_campaign_target_seconds",
        "Wall-clock time spent on one (ixp, family) target",
        buckets=(1.0, 5.0, 15.0, 60.0, 300.0, 900.0, 3600.0)),
    inflight_targets=reg.gauge(
        "repro_campaign_inflight_targets",
        "(ixp, family) targets currently being collected").labels(),
    inflight_peers=reg.gauge(
        "repro_campaign_inflight_peers",
        "Per-peer collections currently in flight",
        ("ixp", "family")),
    peer_seconds=reg.histogram(
        "repro_campaign_peer_seconds",
        "Wall-clock time collecting one peer (all attempts), "
        "by fetch engine", ("ixp", "family", "engine")),
))

#: terminal states of one campaign target.
STATUS_COMPLETE = "complete"            # snapshot written, all peers in
STATUS_DEGRADED = "degraded"            # snapshot written, peers missing
STATUS_INCOMPLETE = "incomplete"        # deadline hit; checkpoint kept
STATUS_FAILED = "failed"                # not even a peer list
STATUS_ALREADY_COLLECTED = "already_collected"


@dataclass(frozen=True)
class CampaignTarget:
    """One (IXP, family) mount to collect."""

    ixp: str
    family: int
    dialect: str = "alice"


@dataclass
class CampaignConfig:
    """Knobs of one collection campaign."""

    base_url: str
    targets: Sequence[CampaignTarget]
    #: snapshot date; defaults to today at run time.
    captured_on: Optional[str] = None
    #: attempts per peer (each attempt spends a full client retry
    #: budget, so this is the *outer* loop of §3's per-peer fetch).
    peer_attempts: int = 2
    #: wall-clock budget per snapshot, seconds (None = unbounded).
    snapshot_deadline: Optional[float] = None
    #: persist a checkpoint every N collected peers.
    checkpoint_every: int = 1
    #: circuit breaker: consecutive failed calls before opening, and
    #: cooldown before the half-open probe.
    breaker_threshold: int = 3
    breaker_reset: float = 5.0
    #: client hardening knobs (see LookingGlassClient).
    max_retries: int = 3
    request_timeout: float = 30.0
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    page_retries: int = 1
    #: fetch engine within one target: "serial" fetches one peer at a
    #: time through the sync client; "async" fans individual route
    #: *pages* onto one selectors event loop (see repro.lg.aio), whose
    #: concurrency ``max_inflight`` bounds.
    io: str = "serial"
    #: async engine: page fetches in flight at once per target — also
    #: the per-mount connection cap handed to the keep-alive pool.
    max_inflight: int = 32
    #: routes per page requested from the LG (both engines).
    page_size: int = DEFAULT_PAGE_SIZE


@dataclass
class PeerFailure:
    """One peer lost after the whole retry budget."""

    asn: int
    failure_class: str
    error: str

    def to_dict(self) -> Dict[str, Any]:
        return {"asn": self.asn, "failure_class": self.failure_class,
                "error": self.error}


@dataclass
class _PeerOutcome:
    """What one per-peer fetch produced: routes or a terminal failure,
    plus how often the mount's breaker refused along the way. Folded
    into the report by :meth:`CollectionCampaign._apply_outcome`."""

    routes: List[Route] = field(default_factory=list)
    failure: Optional[PeerFailure] = None
    circuit_open_skips: int = 0


@dataclass
class _LedgerPeer:
    """One collected peer of a target. A peer collected in this run
    keeps its parsed LG routes; a peer resumed from a checkpoint keeps
    its checkpoint entry instead, decoded only when the snapshot is
    built."""

    name: str
    filtered: int
    routes: Optional[List[Route]] = None
    record: Optional[Dict[str, Any]] = None

    def encode(self) -> EncodedJSON:
        """The checkpoint entry of a peer collected in this run. The
        route dicts are transient, so memory stays at the parsed
        routes."""
        return EncodedJSON.of({
            "routes": [route.to_dict() for route in self.routes],
            "filtered": self.filtered,
            "name": self.name,
        })


class _PeerLedger:
    """The peers of one target collected so far, keyed by ASN string:
    what every checkpoint segment and the final snapshot are built
    from.

    A checkpoint flush appends one journal segment holding only what
    was collected (and lost) since the previous flush, so each peer is
    encoded exactly once and a flush costs the same however many peers
    came before it. Peers resumed from a checkpoint are in the journal
    already and are never encoded again.
    """

    def __init__(self) -> None:
        self._peers: Dict[str, _LedgerPeer] = {}
        self._unflushed: Set[str] = set()
        self._failures_flushed = 0

    def __len__(self) -> int:
        return len(self._peers)

    def __contains__(self, asn: int) -> bool:
        return str(asn) in self._peers

    def resume(self, records: Dict[str, Dict[str, Any]]) -> None:
        """Adopt a checkpoint's ``peers`` map."""
        for asn, record in records.items():
            self._peers[asn] = _LedgerPeer(
                name=record.get("name", f"AS{asn}"),
                filtered=int(record.get("filtered", 0)),
                record=record)

    def collect(self, neighbor: NeighborSummary,
                routes: List[Route]) -> None:
        """Record a peer collected in this run."""
        asn = str(neighbor.asn)
        self._peers[asn] = _LedgerPeer(
            name=neighbor.name, filtered=neighbor.routes_filtered,
            routes=routes)
        self._unflushed.add(asn)

    def in_asn_order(self) -> List[Tuple[str, _LedgerPeer]]:
        return [(asn, self._peers[asn])
                for asn in sorted(self._peers, key=int)]

    def segment(self, failures: Sequence[PeerFailure]) -> Dict[str, Any]:
        """The ``peers`` and ``failures`` of the next checkpoint
        segment: what *failures* and the ledger gained since the last
        :meth:`flushed`. Each is ASN-sorted, so segment bytes do not
        depend on fetch completion order under the async engine."""
        return {
            "peers": EncodedJSON.of_object({
                asn: self._peers[asn].encode()
                for asn in sorted(self._unflushed, key=int)}),
            "failures": [f.to_dict() for f in sorted(
                failures[self._failures_flushed:], key=lambda f: f.asn)],
        }

    def flushed(self, failures: Sequence[PeerFailure]) -> None:
        """The last :meth:`segment` is on disk."""
        self._unflushed.clear()
        self._failures_flushed = len(failures)


@dataclass
class TargetReport:
    """Outcome of one (IXP, family) target."""

    ixp: str
    family: int
    status: str = STATUS_FAILED
    peers_attempted: int = 0
    peers_collected: int = 0
    #: peers restored from a checkpoint instead of re-fetched.
    peers_resumed: int = 0
    failures: List[PeerFailure] = field(default_factory=list)
    #: peers skipped because the mount's breaker was open.
    circuit_open_skips: int = 0
    deadline_hit: bool = False
    #: parked by a graceful-shutdown request (SIGINT/SIGTERM).
    interrupted: bool = False
    snapshot_path: Optional[str] = None
    error: Optional[str] = None
    breaker_state: str = "closed"
    breaker_opens: int = 0
    elapsed: float = 0.0
    #: why a parked checkpoint was discarded at resume instead of
    #: merged (``version_drift`` or ``dictionary_drift``); None when
    #: none was.
    checkpoint_discarded: Optional[str] = None

    @property
    def failure_counts(self) -> Dict[str, int]:
        counts = {cls: 0 for cls in FAILURE_CLASSES}
        for failure in self.failures:
            counts[failure.failure_class] = \
                counts.get(failure.failure_class, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ixp": self.ixp, "family": self.family, "status": self.status,
            "peers_attempted": self.peers_attempted,
            "peers_collected": self.peers_collected,
            "peers_resumed": self.peers_resumed,
            "failures": [f.to_dict() for f in self.failures],
            "failure_counts": self.failure_counts,
            "circuit_open_skips": self.circuit_open_skips,
            "deadline_hit": self.deadline_hit,
            "interrupted": self.interrupted,
            "snapshot_path": self.snapshot_path,
            "error": self.error,
            "breaker_state": self.breaker_state,
            "breaker_opens": self.breaker_opens,
            "elapsed": self.elapsed,
            "checkpoint_discarded": self.checkpoint_discarded,
        }


@dataclass
class CampaignReport:
    """Outcome of one campaign run over all targets."""

    captured_on: str = ""
    resumed: bool = False
    #: a graceful-shutdown request parked this run before it finished.
    interrupted: bool = False
    targets: List[TargetReport] = field(default_factory=list)
    #: where the observability run report landed (None when disabled).
    run_report_path: Optional[str] = None

    @property
    def failure_counts(self) -> Dict[str, int]:
        counts = {cls: 0 for cls in FAILURE_CLASSES}
        for target in self.targets:
            for cls, count in target.failure_counts.items():
                counts[cls] = counts.get(cls, 0) + count
        return counts

    @property
    def complete(self) -> bool:
        """Every target produced a full snapshot."""
        return all(t.status in (STATUS_COMPLETE, STATUS_ALREADY_COLLECTED)
                   for t in self.targets)

    @property
    def resumable(self) -> bool:
        """A re-run with ``resume=True`` has work to pick up: a parked
        checkpoint, or targets never reached before an interruption."""
        return (self.interrupted
                or any(t.status == STATUS_INCOMPLETE
                       for t in self.targets))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "captured_on": self.captured_on,
            "resumed": self.resumed,
            "interrupted": self.interrupted,
            "failure_counts": self.failure_counts,
            "targets": [t.to_dict() for t in self.targets],
            "run_report_path": self.run_report_path,
        }

    def format_summary(self) -> str:
        by_status: Dict[str, int] = {}
        for target in self.targets:
            by_status[target.status] = by_status.get(target.status, 0) + 1
        headline = (f"campaign {self.captured_on}: "
                    + ", ".join(f"{count} {status}"
                                for status, count
                                in sorted(by_status.items())))
        if self.interrupted:
            headline += " (interrupted — parked for --resume)"
        lines = [headline]
        for target in self.targets:
            total = target.peers_attempted + target.peers_resumed
            have = target.peers_collected + target.peers_resumed
            parts = [f"  {target.ixp}/v{target.family}: {target.status}",
                     f"{have}/{total} peers"]
            if target.peers_resumed:
                parts.append(f"({target.peers_resumed} from checkpoint)")
            if target.failures:
                parts.append("lost " + ", ".join(
                    f"{count} {cls}" for cls, count
                    in sorted(target.failure_counts.items()) if count))
            if target.breaker_opens:
                parts.append(f"breaker opened x{target.breaker_opens}")
            if target.error:
                parts.append(f"error: {target.error}")
            lines.append(" ".join(parts))
        return "\n".join(lines)


class CollectionCampaign:
    """Orchestrates one durable collection campaign over a store."""

    def __init__(self, store: DatasetStore, config: CampaignConfig,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.store = store
        self.config = config
        self.clock = clock
        self.sleep = sleep
        self.breakers = BreakerRegistry(
            failure_threshold=config.breaker_threshold,
            reset_timeout=config.breaker_reset,
            clock=clock)
        self._clients: Dict[Tuple[str, int], LookingGlassClient] = {}
        self._aio_clients: Dict[Tuple[str, int],
                                AsyncLookingGlassClient] = {}
        if config.io not in ("serial", "async"):
            raise ValueError(
                f"unknown io engine {config.io!r} "
                f"(expected 'serial' or 'async')")
        self._shutdown = threading.Event()
        self._dictionary_digests: Dict[str, Optional[str]] = {}

    # -- graceful shutdown ------------------------------------------------

    def request_shutdown(self) -> None:
        """Ask the campaign to park at the next safe boundary: the
        in-flight peer finishes, a checkpoint is flushed, and the run
        returns an interrupted (resumable) report. Safe to call from
        signal handlers and other threads."""
        if not self._shutdown.is_set():
            self._shutdown.set()
            _METRICS().interruptions.inc()

    @property
    def shutdown_requested(self) -> bool:
        return self._shutdown.is_set()

    # -- plumbing --------------------------------------------------------

    def client_for(self, target: CampaignTarget) -> LookingGlassClient:
        """One persistent client per mount (stats accumulate across
        the campaign, and the mount's async client shares them)."""
        key = (target.ixp, target.family)
        if key not in self._clients:
            config = self.config
            self._clients[key] = LookingGlassClient(
                base_url=config.base_url,
                ixp=target.ixp,
                family=target.family,
                dialect=target.dialect,
                max_retries=config.max_retries,
                backoff_base=config.backoff_base,
                backoff_cap=config.backoff_cap,
                timeout=config.request_timeout,
                page_retries=config.page_retries,
                breaker=self.breakers.get(target.ixp, target.family),
                sleep=self.sleep,
            )
        return self._clients[key]

    # -- campaign run ----------------------------------------------------

    def run(self, resume: bool = False) -> CampaignReport:
        """Collect every target, one after another; with
        ``resume=True``, restart from checkpoints and skip snapshots
        already in the store. Targets never started before a shutdown
        are absent from ``report.targets``.

        With observability enabled, a JSON run report (metrics
        snapshot + traces + the campaign summary) is written through
        the store as ``campaign-<date>``.
        """
        captured_on = self.config.captured_on or utc_today()
        report = CampaignReport(captured_on=captured_on, resumed=resume)
        try:
            with obs.span(f"campaign {captured_on}"):
                for target in self.config.targets:
                    if self._shutdown.is_set():
                        # park before touching further targets; resume
                        # collects them later.
                        report.interrupted = True
                        break
                    outcome = self._run_one_target(target, captured_on,
                                                   resume)
                    report.targets.append(outcome)
                    if outcome.interrupted:
                        report.interrupted = True
                    _METRICS().targets.labels(outcome.status).inc()
                    _METRICS().target_seconds.labels().observe(
                        outcome.elapsed)
        finally:
            # the async clients own sockets and a selector each; the
            # sync clients (and the stats they share) stay readable.
            for aclient in self._aio_clients.values():
                aclient.close()
            self._aio_clients.clear()
        if obs.enabled():
            report.run_report_path = str(self.store.save_run_report(
                f"campaign-{captured_on}",
                obs.build_run_report(
                    "campaign", meta=report.to_dict())))
        return report

    def _run_one_target(self, target: CampaignTarget, captured_on: str,
                        resume: bool) -> TargetReport:
        metrics = _METRICS()
        metrics.inflight_targets.inc()
        try:
            with obs.span(f"target {target.ixp}/v{target.family}"):
                return self._collect_target(target, captured_on, resume)
        finally:
            metrics.inflight_targets.dec()

    def _collect_target(self, target: CampaignTarget, captured_on: str,
                        resume: bool) -> TargetReport:
        report = TargetReport(ixp=target.ixp, family=target.family)
        started = self.clock()
        if resume and self.store.has_snapshot(
                target.ixp, target.family, captured_on):
            # a crash between publishing the snapshot and deleting the
            # journal leaves one behind; nothing can resume from it.
            self.store.delete_checkpoint(
                target.ixp, target.family, captured_on)
            report.status = STATUS_ALREADY_COLLECTED
            return report

        ledger = _PeerLedger()
        if resume:
            self._resume_checkpoint(target, captured_on, ledger, report)
        else:
            self.store.delete_checkpoint(
                target.ixp, target.family, captured_on)

        client = self.client_for(target)
        try:
            neighbors = client.neighbors()
        except LookingGlassError as error:
            report.status = STATUS_FAILED
            report.error = str(error)
            report.failures.append(PeerFailure(
                asn=0, failure_class=error.failure_class,
                error=str(error)))
            _METRICS().failures.labels(
                target.ixp, str(target.family),
                error.failure_class).inc()
            self._note_breaker(target, report, started)
            return report

        # Deterministic ASN order: submission and reassembly both walk
        # this list, so the fetch engine cannot change snapshot content.
        established = sorted(
            (n for n in neighbors if n.established),
            key=lambda n: n.asn)
        pending = [n for n in established if n.asn not in ledger]
        collect = (self._collect_peers_async if self.config.io == "async"
                   else self._collect_peers_serial)
        collect(client, pending, ledger, report, target, captured_on,
                started)

        if report.deadline_hit or report.interrupted:
            self._save_checkpoint(target, captured_on, ledger, report)
            report.status = STATUS_INCOMPLETE
        else:
            snapshot = self._build_snapshot(target, captured_on, ledger,
                                            report)
            report.snapshot_path = str(self.store.save_snapshot(snapshot))
            self.store.delete_checkpoint(
                target.ixp, target.family, captured_on)
            report.status = (STATUS_COMPLETE if not report.failures
                             else STATUS_DEGRADED)
        self._note_breaker(target, report, started)
        return report

    # -- helpers ---------------------------------------------------------

    def _resume_checkpoint(self, target: CampaignTarget,
                           captured_on: str, ledger: _PeerLedger,
                           report: TargetReport) -> None:
        """Seed the ledger from the target's parked checkpoint, or
        discard a checkpoint that cannot be merged."""
        metrics = _METRICS()
        mount = (target.ixp, str(target.family))
        dropped: List[QuarantineRecord] = []
        checkpoint = self.store.load_checkpoint(
            target.ixp, target.family, captured_on, dropped=dropped)
        for record in dropped:
            metrics.segments_dropped.labels(
                *mount, record.damage_class).inc()
        if not checkpoint:
            return
        if checkpoint.get("version") != CHECKPOINT_VERSION:
            discarded = "version_drift"
        elif self._checkpoint_scheme_drifted(target, checkpoint):
            # the community scheme changed while the target was parked:
            # the checkpointed routes were interpreted under the old
            # dictionary, so merging them would mix schemes inside one
            # snapshot. Restart clean.
            discarded = "dictionary_drift"
        else:
            ledger.resume(checkpoint.get("peers", {}))
            report.peers_resumed = len(ledger)
            if ledger:
                metrics.resumes.labels(*mount).inc()
                metrics.peers.labels(*mount, "resumed").inc(len(ledger))
            return
        self.store.delete_checkpoint(target.ixp, target.family,
                                     captured_on)
        report.checkpoint_discarded = discarded
        metrics.checkpoints_rejected.labels(*mount, discarded).inc()

    def _deadline_exceeded(self, started: float) -> bool:
        deadline = self.config.snapshot_deadline
        return (deadline is not None
                and self.clock() - started >= deadline)

    def _collect_peers_serial(self, client: LookingGlassClient,
                              pending: Sequence[NeighborSummary],
                              ledger: _PeerLedger,
                              report: TargetReport,
                              target: CampaignTarget, captured_on: str,
                              started: float) -> None:
        """The ``io="serial"`` path: one peer at a time, shutdown and
        deadline checked between peers."""
        since_checkpoint = 0
        for neighbor in pending:
            if self._shutdown.is_set():
                report.interrupted = True
                break
            if self._deadline_exceeded(started):
                report.deadline_hit = True
                break
            report.peers_attempted += 1
            outcome = self._collect_peer(client, neighbor, target)
            if not self._apply_outcome(target, report, neighbor,
                                       outcome, ledger):
                continue
            since_checkpoint += 1
            if since_checkpoint >= max(1, self.config.checkpoint_every):
                self._save_checkpoint(target, captured_on, ledger,
                                      report)
                since_checkpoint = 0

    def _aio_client_for(self, target: CampaignTarget,
                        client: LookingGlassClient,
                        ) -> AsyncLookingGlassClient:
        """One async client (loop + pool) per mount, wrapping the
        mount's sync client so stats and breaker stay shared."""
        key = (target.ixp, target.family)
        if key not in self._aio_clients:
            self._aio_clients[key] = AsyncLookingGlassClient.from_client(
                client, max_inflight=self.config.max_inflight)
        return self._aio_clients[key]

    def _collect_peers_async(self, client: LookingGlassClient,
                             pending: Sequence[NeighborSummary],
                             ledger: _PeerLedger,
                             report: TargetReport,
                             target: CampaignTarget, captured_on: str,
                             started: float) -> None:
        """The ``io="async"`` path: every pending peer's paginated
        fetch fans onto one selectors event loop, page-parallel under
        the client's ``max_inflight`` bound.

        The calling thread drives the loop one bounded turn at a time
        and folds finished peers between turns, so report mutation and
        checkpoint cadence match the serial path. A shutdown/deadline
        park stops submitting, drains the in-flight peers and
        checkpoints them too.
        """
        aclient = self._aio_client_for(target, client)
        loop = aclient.loop
        queue = deque(pending)
        inflight: Dict[Any, NeighborSummary] = {}  # Task -> neighbor
        window = max(1, self.config.max_inflight)
        since_checkpoint = 0
        stopped = False
        while queue or inflight:
            if not stopped:
                if self._shutdown.is_set():
                    report.interrupted = True
                    stopped = True
                elif self._deadline_exceeded(started):
                    report.deadline_hit = True
                    stopped = True
            while (not stopped and queue
                   and len(inflight) < window):
                neighbor = queue.popleft()
                report.peers_attempted += 1
                task = loop.spawn(
                    self._collect_peer_coro(aclient, neighbor, target),
                    name=f"peer:{neighbor.asn}")
                inflight[task] = neighbor
            if stopped:
                queue.clear()
            if not inflight:
                continue
            loop.run_once()
            done = [task for task in inflight if task.done]
            for task in done:
                neighbor = inflight.pop(task)
                if task.error is not None:
                    raise task.error  # a bug, not a taxonomy failure
                if self._apply_outcome(target, report, neighbor,
                                       task.result, ledger):
                    since_checkpoint += 1
            if since_checkpoint >= max(1, self.config.checkpoint_every):
                self._save_checkpoint(target, captured_on, ledger,
                                      report)
                since_checkpoint = 0

    def _collect_peer_coro(self, aclient: AsyncLookingGlassClient,
                           neighbor: NeighborSummary,
                           target: CampaignTarget,
                           ) -> Any:
        """Coroutine twin of :meth:`_collect_peer`: the per-peer retry
        budget with the same breaker-cooldown and definitive-failure
        handling, all waits through the loop."""
        from ..net import aio
        metrics = _METRICS()
        mount = (target.ixp, str(target.family))
        metrics.inflight_peers.labels(*mount).inc()
        fetch_started = time.perf_counter()
        try:
            attempts = max(1, self.config.peer_attempts)
            skips = 0
            last: Optional[LookingGlassError] = None
            for attempt in range(attempts):
                try:
                    routes = yield from aclient.peer_routes_coro(
                        neighbor.asn,
                        page_size=self.config.page_size)
                    return _PeerOutcome(routes=routes,
                                        circuit_open_skips=skips)
                except CircuitOpenError as error:
                    skips += 1
                    last = error
                    cooldown = (aclient.breaker.seconds_until_probe
                                if aclient.breaker is not None else 0.0)
                    if attempt < attempts - 1 and cooldown > 0:
                        # same cushion as the serial path: sleep past
                        # the cooldown boundary, not exactly onto it.
                        yield from aio.sleep(cooldown + 1e-3)
                except TransientError as error:
                    last = error
                except LookingGlassError as error:
                    last = error
                    break  # definitive — retrying is pointless
            assert last is not None
            return _PeerOutcome(
                failure=PeerFailure(
                    asn=neighbor.asn, failure_class=last.failure_class,
                    error=str(last)),
                circuit_open_skips=skips)
        finally:
            metrics.inflight_peers.labels(*mount).dec()
            metrics.peer_seconds.labels(*mount, "async").observe(
                time.perf_counter() - fetch_started)

    def _apply_outcome(self, target: CampaignTarget,
                       report: TargetReport,
                       neighbor: NeighborSummary,
                       outcome: "_PeerOutcome",
                       ledger: _PeerLedger) -> bool:
        """Fold one peer's outcome into the report and the ledger.
        True = peer collected."""
        metrics = _METRICS()
        report.circuit_open_skips += outcome.circuit_open_skips
        if outcome.failure is not None:
            report.failures.append(outcome.failure)
            metrics.peers.labels(
                target.ixp, str(target.family), "failed").inc()
            metrics.failures.labels(
                target.ixp, str(target.family),
                outcome.failure.failure_class).inc()
            return False
        report.peers_collected += 1
        metrics.peers.labels(
            target.ixp, str(target.family), "collected").inc()
        ledger.collect(neighbor, outcome.routes)
        return True

    def _collect_peer(self, client: LookingGlassClient,
                      neighbor: NeighborSummary,
                      target: CampaignTarget) -> "_PeerOutcome":
        """One peer's routes under the per-peer retry budget.

        Pure fetch: never raises and never touches the report — the
        outcome is folded in by :meth:`_apply_outcome`.
        """
        metrics = _METRICS()
        mount = (target.ixp, str(target.family))
        metrics.inflight_peers.labels(*mount).inc()
        fetch_started = time.perf_counter()
        try:
            return self._collect_peer_inner(client, neighbor)
        finally:
            metrics.inflight_peers.labels(*mount).dec()
            metrics.peer_seconds.labels(*mount, "serial").observe(
                time.perf_counter() - fetch_started)

    def _collect_peer_inner(self, client: LookingGlassClient,
                            neighbor: NeighborSummary,
                            ) -> "_PeerOutcome":
        attempts = max(1, self.config.peer_attempts)
        skips = 0
        last: Optional[LookingGlassError] = None
        for attempt in range(attempts):
            try:
                return _PeerOutcome(
                    routes=list(client.routes(
                        neighbor.asn,
                        page_size=self.config.page_size)),
                    circuit_open_skips=skips)
            except CircuitOpenError as error:
                # The mount is known-down: wait out the cooldown once
                # rather than burning attempts against a tripped
                # breaker.
                skips += 1
                last = error
                cooldown = (client.breaker.seconds_until_probe
                            if client.breaker is not None else 0.0)
                if attempt < attempts - 1 and cooldown > 0:
                    # cushion past the cooldown boundary: sleeping the
                    # exact remainder can land short of the threshold
                    # (float rounding, coarse clocks) and deadlock the
                    # probe.
                    self.sleep(cooldown + 1e-3)
            except TransientError as error:
                last = error
            except LookingGlassError as error:
                last = error
                break  # definitive (4xx-style) — retrying is pointless
        assert last is not None
        return _PeerOutcome(
            failure=PeerFailure(
                asn=neighbor.asn, failure_class=last.failure_class,
                error=str(last)),
            circuit_open_skips=skips)

    def _dictionary_digest(self, ixp: str) -> Optional[str]:
        """The store's current community-dictionary digest for one IXP
        (None when there is no loadable dictionary), cached per
        campaign — scheme drift happens between runs, not within one."""
        if ixp not in self._dictionary_digests:
            digest: Optional[str] = None
            if self.store.has_dictionary(ixp):
                try:
                    digest = self.store.load_dictionary(ixp).digest()
                except IntegrityError:
                    digest = None
            self._dictionary_digests[ixp] = digest
        return self._dictionary_digests[ixp]

    def _checkpoint_scheme_drifted(self, target: CampaignTarget,
                                   checkpoint: Dict[str, Any]) -> bool:
        """True when the checkpoint was parked under a different
        community scheme than the store holds now. Legacy checkpoints
        (no recorded digest) cannot be verified and merge as before."""
        if "dictionary_digest" not in checkpoint:
            return False
        return (checkpoint.get("dictionary_digest")
                != self._dictionary_digest(target.ixp))

    def _save_checkpoint(self, target: CampaignTarget, captured_on: str,
                         ledger: _PeerLedger,
                         report: TargetReport) -> Path:
        """Append what the target gained since the last flush to its
        checkpoint journal; returns the segment's path."""
        payload: Dict[str, Any] = {
            "version": CHECKPOINT_VERSION,
            "ixp": target.ixp,
            "family": target.family,
            "captured_on": captured_on,
            # the community scheme this progress was interpreted under;
            # resume refuses to merge across a scheme change.
            "dictionary_digest": self._dictionary_digest(target.ixp),
            **ledger.segment(report.failures),
        }
        if obs.enabled():
            # a parked checkpoint carries the metrics that explain it
            payload["metrics"] = obs.snapshot()
        path = self.store.save_checkpoint(
            target.ixp, target.family, captured_on, payload)
        ledger.flushed(report.failures)
        _METRICS().checkpoints.labels(
            target.ixp, str(target.family)).inc()
        return path

    def _build_snapshot(self, target: CampaignTarget, captured_on: str,
                        ledger: _PeerLedger,
                        report: TargetReport) -> Snapshot:
        """Assemble the snapshot from the ledger.

        Peers collected in this run contribute the routes parsed from
        their LG pages; only peers resumed from a checkpoint are decoded
        from their checkpoint entries, sharing one memo.

        Deterministic by construction: members and routes are emitted
        in ASN order, membership covers exactly the collected peers
        (a failed peer is evidence lost, not a member observed — it is
        listed in ``meta`` only), and the meta block contains nothing
        that depends on request interleaving — so an ``io="async"`` run
        writes byte-identical snapshots to a serial one.
        """
        members: List[Member] = []
        routes: List[Route] = []
        filtered_count = 0
        memo = RouteDecodeMemo()
        # checkpointed peers that left the peer list since the first
        # run still belong to this date's snapshot.
        for asn, peer in ledger.in_asn_order():
            members.append(Member(
                asn=int(asn),
                name=peer.name,
                role=MemberRole.ACCESS_ISP,  # role is not observable
                at_rs_v4=target.family == 4,
                at_rs_v6=target.family == 6,
            ))
            if peer.routes is not None:
                routes.extend(peer.routes)
            else:
                routes.extend(Route.from_dict(r, memo)
                              for r in peer.record["routes"])
            filtered_count += peer.filtered
        failures = sorted(report.failures, key=lambda f: f.asn)
        failed = [f.asn for f in failures]
        return Snapshot(
            ixp=target.ixp,
            family=target.family,
            captured_on=captured_on,
            members=members,
            routes=routes,
            filtered_count=filtered_count,
            meta={
                "source": self.config.base_url,
                "peers_failed": failed,
                "peer_failure_classes": {
                    str(f.asn): f.failure_class for f in failures},
                "degraded": bool(failed),
                "campaign": {
                    "resumed_peers": report.peers_resumed,
                    "failure_counts": report.failure_counts,
                },
            },
        )

    def _note_breaker(self, target: CampaignTarget, report: TargetReport,
                      started: float) -> None:
        breaker = self.breakers.get(target.ixp, target.family)
        report.breaker_state = breaker.state
        report.breaker_opens = breaker.times_opened
        report.elapsed = self.clock() - started


def install_shutdown_handlers(
        campaign: CollectionCampaign,
        signals: Sequence[int] = (_signal.SIGINT, _signal.SIGTERM),
) -> Callable[[], None]:
    """Route SIGINT/SIGTERM into a graceful flush-checkpoint-then-park.

    The first signal calls :meth:`CollectionCampaign.request_shutdown`
    and immediately restores the previous handlers, so a second signal
    behaves as before (typically a hard ``KeyboardInterrupt``).
    Returns a restore callable for the non-signal exit paths. Signal
    handlers can only be installed from the main thread; callers on
    other threads get a no-op restore back.
    """
    previous: Dict[int, Any] = {}

    def restore() -> None:
        for signum, handler in previous.items():
            try:
                _signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
        previous.clear()

    def handler(signum: int, _frame: Any) -> None:
        campaign.request_shutdown()
        restore()

    try:
        for signum in signals:
            previous[signum] = _signal.signal(signum, handler)
    except ValueError:  # not the main thread
        previous.clear()
    return restore
