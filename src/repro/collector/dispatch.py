"""Crash-tolerant distributed campaign dispatch.

The paper's twelve-week, eight-IXP collection is exactly the shape of
campaign that outlives any single process: collectors crash, looking
glasses stall, machines reboot. This module shards a campaign's
``(IXP, family, day)`` work units across worker **processes** such
that any worker — or the coordinator itself — can be SIGKILLed at any
instant and a re-run converges to the same merged store a fault-free
serial run produces. The moving pieces:

* **lease-based claims** — one lease file per work unit under
  ``<store>/leases/``, written through the integrity-envelope
  machinery (kind ``lease``). A claim is an ``os.link`` of a fully
  written temp file onto a *token-numbered* path: creation is
  atomic-exclusive, so exactly one of two racing claimants wins, and
  the token — monotone per unit by construction, because token *n+1*
  can only ever be linked once — doubles as the **fencing token**;

* **heartbeat renewal and expiry** — the holder renews its lease on a
  heartbeat thread; other workers treat a lease whose ``renewed_at``
  is more than one TTL stale as expired and reclaim it. Expiry is a
  *wall-clock* judgement (monotonic clocks are meaningless across
  processes), which makes it a **liveness** mechanism only: clock skew
  can at worst delay or hasten a steal. **Safety** never depends on
  clocks — a worker's output is staged privately and only merged by a
  commit that re-checks the fencing token, and the merge itself is a
  create-exclusive publish, so a zombie's late write is quarantined
  (never merged) no matter what its clock thinks;

* **work-stealing** — idle workers scan the unit list (rotated by
  worker index to spread contention) for unclaimed or expired units;
  when nothing is claimable they back off with full jitter, the same
  discipline the LG client uses against rate limits;

* **staged shards, lease-checked merge** — each claim collects into a
  private staging store ``<store>/staging/<unit>.t<token>/`` (a full
  :class:`~repro.collector.store.DatasetStore`: atomic writes,
  checkpoints, fsck-able). A successor claim adopts the predecessor's
  checkpoint, so work survives worker death at per-peer granularity.
  Commit = fencing-token check, exclusive publish into the main tree,
  manifest record under a cross-process flock, lease release;

* **deterministic worker fault injection** —
  :class:`WorkerCrashSchedule` mirrors ``FaultSchedule`` /
  ``CrashSchedule``: a per-worker-index plan of ``os._exit`` points
  (mid-unit, mid-checkpoint, mid-lease-renewal, pre-commit), shipped
  to worker processes through the environment — the substrate of the
  ``tests/chaos`` dispatch harness.

Dispatch is the collection's only multi-target scale: each worker
runs one claimed unit at a time as a single-target
:class:`~repro.collector.campaign.CollectionCampaign`, fetching its
peers with the campaign's ``io`` engine (serial or async).

The coordinator spawns workers as subprocesses, restarts unexpected
exits (bounded), aggregates worker reports into ``repro_dispatch_*``
metrics, and audits the merged store with fsck. All campaign state
lives in the store, so a killed coordinator is recovered by simply
re-running ``repro-study campaign --dispatch N``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
import types
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from .. import obs
from ..io.faultfs import (
    FAULT_PLAN_ENV,
    StorageUnavailable,
    active_fs,
    host_identity,
    install_from_env,
    record_fault_counts,
    with_fs_retries,
)
from ..net.backoff import FullJitterBackoff
from .campaign import (
    STATUS_COMPLETE,
    STATUS_DEGRADED,
    CampaignConfig,
    CampaignTarget,
    CollectionCampaign,
)
from .fsck import fsck_store
from .integrity import (
    CrashSchedule,
    IntegrityError,
    atomic_write,
    decode_artefact,
    encode_artefact,
)
from .manifest import _utcnow
from .scraper import utc_today
from .store import LEASES_DIR, QUARANTINE_DIR, STAGING_DIR, DatasetStore

LEASE_VERSION = 1
LEASE_SUFFIX = ".lease.json"

#: exit code a :class:`WorkerCrashSchedule` kill uses (distinct from
#: the store-level CrashSchedule's 86, so chaos tests can tell a
#: worker kill from a write-boundary kill).
WORKER_CRASH_EXIT = 87

#: environment variable carrying a serialized WorkerCrashSchedule into
#: worker subprocesses.
CRASH_PLAN_ENV = "REPRO_DISPATCH_CRASH_PLAN"

#: exit code of a worker that parked because the shared store became
#: unusable (ENOSPC / persistent EIO) — resumable once storage heals,
#: and distinct from a crash so the coordinator does not restart it
#: into the same full disk.
WORKER_STORAGE_EXIT = 2

#: prefix of the single JSON report line a worker prints on exit.
WORKER_REPORT_PREFIX = "REPRO-WORKER-REPORT "

#: unit terminal states as the coordinator sees them.
UNIT_COMPLETE = "complete"      # snapshot published in the main tree
UNIT_PENDING = "pending"        # claimable (or currently leased)
UNIT_ABANDONED = "abandoned"    # claim budget exhausted, no snapshot

_METRICS = obs.MetricSet(lambda reg: types.SimpleNamespace(
    leases=reg.counter(
        "repro_dispatch_leases_total",
        "Lease events across dispatch workers "
        "(claimed / stolen / renewed / released)", ("event",)),
    zombies=reg.counter(
        "repro_dispatch_zombie_writes_total",
        "Staged shard outputs quarantined because the writer's "
        "lease was lost — fencing denials, never merged").labels(),
    restarts=reg.counter(
        "repro_dispatch_worker_restarts_total",
        "Worker processes restarted after an unexpected exit").labels(),
    units=reg.counter(
        "repro_dispatch_units_total",
        "Dispatch work units, by terminal status", ("status",)),
    retries=reg.counter(
        "repro_dispatch_unit_retries_total",
        "Unit claims beyond each unit's first — retries after a "
        "park, an expiry, or a steal").labels(),
    workers=reg.gauge(
        "repro_dispatch_workers_alive",
        "Dispatch worker processes currently alive").labels(),
    ambiguity=reg.counter(
        "repro_dispatch_lease_ambiguity_resolved_total",
        "Ambiguous lease link() results resolved by post-checking "
        "ownership — NFS retransmit hazards recovered, not lost"
    ).labels(),
    skew=reg.counter(
        "repro_dispatch_clock_skew_observed_total",
        "Lease expiry judgements that found a holder's renewed_at "
        "future-dated beyond the skew budget and fell back to "
        "monotonic observation").labels(),
    parked_workers=reg.counter(
        "repro_dispatch_workers_parked_total",
        "Workers that parked (exit 2) because the shared store "
        "became unusable — ENOSPC or persistent I/O errors").labels(),
))


# -- work units ----------------------------------------------------------

@dataclass(frozen=True)
class WorkUnit:
    """One (IXP, family, day) shard of a campaign."""

    ixp: str
    family: int
    date: str
    dialect: str = "alice"

    @property
    def key(self) -> str:
        """Filesystem-safe unit name (lease dir / staging dir stem)."""
        return f"{self.ixp}__v{self.family}__{self.date}"

    def to_dict(self) -> Dict[str, Any]:
        return {"ixp": self.ixp, "family": self.family,
                "date": self.date, "dialect": self.dialect}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "WorkUnit":
        return cls(ixp=str(payload["ixp"]), family=int(payload["family"]),
                   date=str(payload["date"]),
                   dialect=str(payload.get("dialect", "alice")))


# -- leases --------------------------------------------------------------

@dataclass
class Lease:
    """One unit's current claim, as read from (or written to) disk."""

    unit: str
    owner: str
    token: int
    acquired_at: float
    renewed_at: float
    ttl: float
    released: bool = False
    #: host identity of the holder — ``hostname:pid:boot-nonce`` (see
    #: :func:`repro.io.faultfs.host_identity`). Worker *names* repeat
    #: across coordinators ("w0" on host A and host B); the host
    #: string is what makes ownership checks unique across machines
    #: and across pid reuse. Empty for pre-multi-host lease files.
    host: str = ""
    #: transient — this claim displaced an expired, unreleased holder.
    stolen: bool = False
    #: transient — the on-disk lease failed verification (treated as
    #: expired; fencing keeps the damaged holder's writes out).
    damaged: bool = False

    def to_payload(self) -> Dict[str, Any]:
        return {
            "version": LEASE_VERSION,
            "unit": self.unit,
            "owner": self.owner,
            "token": self.token,
            "acquired_at": self.acquired_at,
            "renewed_at": self.renewed_at,
            "ttl": self.ttl,
            "released": self.released,
            "host": self.host,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Lease":
        return cls(
            unit=str(payload["unit"]),
            owner=str(payload["owner"]),
            token=int(payload["token"]),
            acquired_at=float(payload.get("acquired_at", 0.0)),
            renewed_at=float(payload["renewed_at"]),
            ttl=float(payload["ttl"]),
            released=bool(payload.get("released", False)),
            host=str(payload.get("host", "")),
        )

    def same_holder(self, owner: str, host: str) -> bool:
        """True when this lease belongs to (*owner*, *host*). Leases
        written before host identities existed (empty ``host``) match
        on owner alone — the single-host behaviour."""
        if self.owner != owner:
            return False
        if not self.host or not host:
            return True
        return self.host == host


class LeaseManager:
    """Lease files for one store: claim → renew → release/expire.

    Claims are atomic-exclusive (``os.link`` of a complete temp file
    onto the token-numbered path); the token is the fencing token.
    The injectable ``clock`` must be a *shared* clock (wall time) —
    expiry decisions cross process boundaries. See the module
    docstring for why that is safe.
    """

    def __init__(self, root: os.PathLike, ttl: float,
                 clock: Callable[[], float] = time.time,
                 crash: Optional[Callable[[str], None]] = None,
                 max_claims: int = 25, host: str = "",
                 skew_budget: float = 0.0,
                 mono: Callable[[], float] = time.monotonic) -> None:
        self.root = Path(root)
        self.ttl = ttl
        self.clock = clock
        self.crash = crash or (lambda label: None)
        self.max_claims = max_claims
        #: this manager's host identity string — written into every
        #: lease it claims and compared on renew/release/commit.
        self.host = host
        #: how far another host's wall clock may run *ahead* of ours
        #: before we stop trusting its renewed_at stamps (seconds).
        self.skew_budget = skew_budget
        self.mono = mono
        #: ambiguous link() results resolved as our own successful claim.
        self.ambiguity_resolved = 0
        #: expiry judgements that found renewed_at future-dated beyond
        #: the budget and fell back to monotonic observation.
        self.skew_observations = 0
        self._counter = 0
        #: (unit, token) → (renewed_at seen, mono() when first seen) —
        #: the monotonic-observation ledger for skewed holders.
        self._skewed: Dict[Any, Any] = {}

    def _unit_dir(self, unit_key: str) -> Path:
        return self.root / LEASES_DIR / unit_key

    def _lease_path(self, unit_key: str, token: int) -> Path:
        return self._unit_dir(unit_key) / f"{token:06d}{LEASE_SUFFIX}"

    def _read_lease_at(self, unit_key: str,
                       token: int) -> Optional[Lease]:
        """Read one specific token's lease file; None when missing or
        undecodable."""
        path = self._lease_path(unit_key, token)
        try:
            data = with_fs_retries(
                lambda: active_fs().read_bytes(path),
                label="lease:read")
            payload, _digest, _self = decode_artefact(
                data, kind="lease", gz=False, path=path)
            return Lease.from_payload(payload)
        except (OSError, StorageUnavailable, IntegrityError,
                KeyError, TypeError, ValueError):
            return None

    def current(self, unit_key: str) -> Optional[Lease]:
        """The highest-token lease of a unit, or None. A lease file
        that fails verification comes back with ``damaged=True`` (it
        counts as expired — see :meth:`expired`)."""
        directory = self._unit_dir(unit_key)
        try:
            names = active_fs().listdir(directory)
        except FileNotFoundError:
            return None
        except OSError:
            names = sorted(p.name for p in directory.glob("*")) \
                if directory.is_dir() else []
        latest: Optional[Path] = None
        token = 0
        for name in names:
            if not name.endswith(LEASE_SUFFIX):
                continue
            try:
                candidate = int(name[:-len(LEASE_SUFFIX)])
            except ValueError:
                continue
            if candidate > token:
                token, latest = candidate, directory / name
        if latest is None:
            return None
        try:
            data = with_fs_retries(
                lambda: active_fs().read_bytes(latest),
                label="lease:read")
            payload, _digest, _self = decode_artefact(
                data, kind="lease", gz=False, path=latest)
            lease = Lease.from_payload(payload)
        except (IntegrityError, KeyError, TypeError, ValueError,
                FileNotFoundError):
            # undecodable or vanished-from-view: treat as a damaged
            # holder — expired for liveness, fenced out for safety.
            return Lease(unit=unit_key, owner="", token=token,
                         acquired_at=0.0, renewed_at=0.0, ttl=self.ttl,
                         damaged=True)
        if lease.token != token:
            lease = replace(lease, token=token)
        return lease

    def expired(self, lease: Lease) -> bool:
        """Liveness judgement only — safety comes from the token.

        Hybrid wall/monotonic discipline: expiry is primarily a wall
        clock comparison with an explicit ``skew_budget`` of grace.
        When a holder's ``renewed_at`` is *future-dated* beyond the
        budget (its wall clock runs ahead of ours), its stamps are
        meaningless to us — instead of believing them we observe the
        lease with our own monotonic clock and declare it expired only
        after a full TTL passes without ``renewed_at`` changing. Skew
        can therefore delay a steal, never corrupt data.
        """
        if lease.damaged:
            return True
        if lease.released:
            return False
        elapsed = self.clock() - lease.renewed_at
        if elapsed > lease.ttl + self.skew_budget:
            return True
        if elapsed < -self.skew_budget:
            self.skew_observations += 1
            key = (lease.unit, lease.token)
            seen = self._skewed.get(key)
            if seen is None or seen[0] != lease.renewed_at:
                # first sighting of this stamp: start the stopwatch.
                self._skewed[key] = (lease.renewed_at, self.mono())
                return False
            return self.mono() - seen[1] > lease.ttl
        return False

    def claimable(self, unit_key: str) -> bool:
        current = self.current(unit_key)
        if current is None:
            return True
        if current.token >= self.max_claims:
            return False
        return current.released or self.expired(current)

    def abandoned(self, unit_key: str) -> bool:
        """The claim budget is exhausted and the last holder is gone —
        no worker may ever claim this unit again."""
        current = self.current(unit_key)
        return (current is not None
                and current.token >= self.max_claims
                and (current.released or self.expired(current)))

    def claims(self, unit_key: str) -> int:
        current = self.current(unit_key)
        return current.token if current is not None else 0

    def claim(self, unit_key: str, owner: str) -> Optional[Lease]:
        """Try to claim a unit; None on contention, an active holder,
        or an exhausted claim budget.

        An ambiguous ``link()`` (the NFS retransmit hazard: the link
        was created on the server but an error came back) is resolved
        by *post-checking ownership*: when the retry sees ``EEXIST``,
        the lease file at that token is read back — if it names this
        (owner, host), the earlier attempt succeeded and the claim is
        ours; only a different holder's name means we lost.
        """
        current = self.current(unit_key)
        if current is not None and not current.released \
                and not self.expired(current):
            return None
        token = 1 if current is None else current.token + 1
        if token > self.max_claims:
            return None
        now = self.clock()
        lease = Lease(unit=unit_key, owner=owner, token=token,
                      acquired_at=now, renewed_at=now, ttl=self.ttl,
                      host=self.host)
        data, _digest = encode_artefact(lease.to_payload(), "lease",
                                        gz=False)
        directory = self._unit_dir(unit_key)
        directory.mkdir(parents=True, exist_ok=True)
        self._counter += 1
        temporary = directory / (
            f".{token:06d}.{os.getpid()}.{self._counter}.tmp")
        path = self._lease_path(unit_key, token)
        fs = active_fs()
        self.crash("lease-claim:begin")
        try:
            with_fs_retries(lambda: fs.write_bytes(temporary, data),
                            label="lease:write")
            self.crash("lease-claim:temp")
            try:
                with_fs_retries(lambda: fs.link(temporary, path),
                                label="lease:link")
            except FileExistsError:
                claimed = self._read_lease_at(unit_key, token)
                if claimed is not None \
                        and claimed.same_holder(owner, self.host):
                    # our ambiguously-failed link actually succeeded
                    self.ambiguity_resolved += 1
                    self.crash("lease-claim:linked")
                    lease.stolen = (current is not None
                                    and not current.released
                                    and not current.damaged)
                    return lease
                return None  # a racing claimant linked token first
        finally:
            try:
                temporary.unlink()
            except OSError:
                pass
        self.crash("lease-claim:linked")
        lease.stolen = (current is not None and not current.released
                        and not current.damaged)
        return lease

    def renew(self, lease: Lease) -> bool:
        """Refresh the holder's deadline; False when the lease was
        lost (stolen or superseded) — the holder must stop working."""
        current = self.current(lease.unit)
        if (current is None or current.token != lease.token
                or not current.same_holder(lease.owner, lease.host)
                or current.released):
            return False
        lease.renewed_at = self.clock()
        data, _digest = encode_artefact(lease.to_payload(), "lease",
                                        gz=False)
        atomic_write(self._lease_path(lease.unit, lease.token), data,
                     kind="lease", crash=self.crash)
        return True

    def release(self, lease: Lease) -> bool:
        """Mark the lease released (the unit is immediately claimable
        without waiting out the TTL); False when already lost."""
        current = self.current(lease.unit)
        if (current is None or current.token != lease.token
                or not current.same_holder(lease.owner, lease.host)):
            return False
        lease.released = True
        data, _digest = encode_artefact(lease.to_payload(), "lease",
                                        gz=False)
        atomic_write(self._lease_path(lease.unit, lease.token), data,
                     kind="lease", crash=self.crash)
        return True


# -- worker fault injection ----------------------------------------------

@dataclass
class WorkerCrashSchedule:
    """Deterministic worker-kill plan, mirroring ``FaultSchedule`` /
    ``CrashSchedule``.

    Maps a worker index to one boundary spec
    ``{"label": ..., "occurrence": ...}``; the worker hydrates its
    spec into a :class:`CrashSchedule` in ``exit`` mode (``os._exit``
    — no ``finally``, no ``atexit``, exactly a kill -9) and threads it
    through every boundary it crosses: staging-store writes
    (``checkpoint:temp`` …), lease writes (``lease:temp``,
    ``lease-claim:temp`` …), and the explicit unit boundaries
    ``unit:claimed`` / ``unit:collected``. Serialises through the
    :data:`CRASH_PLAN_ENV` environment variable, so subprocess workers
    crash exactly where the test says.
    """

    plans: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    exit_code: int = WORKER_CRASH_EXIT

    def kill(self, worker_index: int, label: str,
             occurrence: int = 1) -> "WorkerCrashSchedule":
        self.plans[worker_index] = {"label": label,
                                    "occurrence": occurrence}
        return self

    def for_worker(self, worker_index: int) -> Optional[CrashSchedule]:
        plan = self.plans.get(worker_index)
        if plan is None:
            return None
        return CrashSchedule(label=str(plan["label"]),
                             occurrence=int(plan.get("occurrence", 1)),
                             action="exit", exit_code=self.exit_code)

    def to_json(self) -> str:
        return json.dumps({"plans": {str(index): plan for index, plan
                                     in self.plans.items()},
                           "exit_code": self.exit_code})

    @classmethod
    def from_json(cls, raw: str) -> "WorkerCrashSchedule":
        payload = json.loads(raw)
        return cls(plans={int(index): dict(plan) for index, plan
                          in payload.get("plans", {}).items()},
                   exit_code=int(payload.get("exit_code",
                                             WORKER_CRASH_EXIT)))


# -- configuration -------------------------------------------------------

@dataclass
class DispatchConfig:
    """Knobs of one distributed campaign."""

    base_url: str
    units: Sequence[WorkUnit]
    #: worker processes to spawn.
    workers: int = 2
    #: lease TTL, seconds; an unrenewed lease older than this is
    #: stealable. Must comfortably exceed the heartbeat interval.
    lease_ttl: float = 15.0
    #: heartbeat renewal cadence (None = ttl / 3).
    heartbeat_interval: Optional[float] = None
    #: claim budget per unit: a unit claimed this many times without a
    #: published snapshot is abandoned (reported failed, never spun on).
    max_unit_claims: int = 25
    #: worker processes the coordinator may restart after unexpected
    #: exits (None = same as ``workers``).
    worker_restarts: Optional[int] = None
    #: full-jitter backoff for idle workers finding nothing claimable.
    steal_backoff_base: float = 0.05
    steal_backoff_cap: float = 1.0
    #: coordinator monitor cadence, seconds.
    poll_interval: float = 0.05
    #: seconds the coordinator waits for workers to drain on shutdown.
    worker_grace: float = 60.0
    #: run a final fsck audit over the merged store.
    verify: bool = True
    #: per-worker campaign knobs (see CampaignConfig).
    peer_attempts: int = 2
    snapshot_deadline: Optional[float] = None
    checkpoint_every: int = 1
    #: per-peer fetch engine inside each worker (``--io``): "serial"
    #: fetches one peer at a time, "async" fans route *pages* over one
    #: selectors loop per mount.
    io: str = "serial"
    #: concurrent page-fetch bound of the async engine
    #: (``--max-inflight``); ignored under ``io="serial"``.
    max_inflight: int = 32
    breaker_threshold: int = 3
    breaker_reset: float = 5.0
    max_retries: int = 3
    request_timeout: float = 30.0
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: payload codec for snapshots written by workers
    #: (``--snapshot-format``): "json" or "columnar". Reads always
    #: dispatch on the stored payload, so mixed stores stay valid.
    snapshot_codec: str = "json"
    #: host identity override (``--host-id``). None = hostname. The
    #: full identity written into leases is ``<host>:<pid>:<nonce>``.
    host_id: Optional[str] = None
    #: seconds another host's wall clock may run ahead of ours before
    #: its lease renewal stamps are distrusted (``--clock-skew-budget``;
    #: see LeaseManager.expired).
    clock_skew_budget: float = 0.0
    #: serialised FsFaultPlan dict shipped to worker subprocesses via
    #: the environment (chaos harness only — never set in production).
    fs_fault_plan: Optional[Dict[str, Any]] = None
    #: chaos-harness worker-kill plan (never set in production).
    crash_plan: Optional[WorkerCrashSchedule] = None

    def resolved_heartbeat(self) -> float:
        if self.heartbeat_interval is not None:
            return self.heartbeat_interval
        return max(self.lease_ttl / 3.0, 0.01)

    def resolved_restarts(self) -> int:
        if self.worker_restarts is not None:
            return self.worker_restarts
        return max(1, self.workers)

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "base_url": self.base_url,
            "units": [unit.to_dict() for unit in self.units],
        }
        for name in ("workers", "lease_ttl", "heartbeat_interval",
                     "max_unit_claims", "worker_restarts",
                     "steal_backoff_base", "steal_backoff_cap",
                     "poll_interval", "worker_grace", "verify",
                     "peer_attempts", "snapshot_deadline",
                     "checkpoint_every", "io", "max_inflight",
                     "breaker_threshold", "breaker_reset",
                     "max_retries", "request_timeout",
                     "backoff_base", "backoff_cap", "snapshot_codec",
                     "host_id", "clock_skew_budget", "fs_fault_plan"):
            payload[name] = getattr(self, name)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "DispatchConfig":
        kwargs = dict(payload)
        kwargs["units"] = [WorkUnit.from_dict(unit)
                           for unit in kwargs.get("units", [])]
        return cls(**kwargs)


# -- worker --------------------------------------------------------------

class _Heartbeat(threading.Thread):
    """Renews one lease on a cadence; fires ``on_lost`` (and stops)
    the moment a renewal discovers the lease is gone."""

    def __init__(self, leases: LeaseManager, lease: Lease,
                 interval: float, on_lost: Callable[[], None]) -> None:
        super().__init__(name=f"heartbeat-{lease.unit}", daemon=True)
        self.leases = leases
        self.lease = lease
        self.interval = interval
        self.on_lost = on_lost
        self.renewals = 0
        self._stopped = threading.Event()

    def run(self) -> None:
        while not self._stopped.wait(self.interval):
            try:
                alive = self.leases.renew(self.lease)
            except OSError:
                alive = False  # cannot prove ownership → assume lost
            if not alive:
                self.on_lost()
                return
            self.renewals += 1

    def stop(self) -> None:
        self._stopped.set()
        self.join(timeout=10.0)


#: counters a worker accumulates and reports to the coordinator.
_WORKER_STAT_KEYS = (
    "leases_claimed", "leases_stolen", "leases_renewed",
    "leases_released", "leases_lost", "claim_contention",
    "units_completed", "units_parked", "checkpoints_adopted",
    "zombie_quarantines", "lease_ambiguity_resolved",
    "clock_skew_observed", "storage_parked",
)


class DispatchWorker:
    """One dispatch worker: claim → collect (staged) → commit, in a
    work-stealing loop until every unit is resolved.

    Runs as a subprocess in production (:func:`worker_main`); tests
    drive it in-process with an injected clock/sleep to exercise the
    lease and fencing paths deterministically.
    """

    def __init__(self, store_root: os.PathLike, config: DispatchConfig,
                 worker_index: int, owner: Optional[str] = None,
                 crash: Optional[CrashSchedule] = None,
                 clock: Callable[[], float] = time.time,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.store = DatasetStore(store_root)
        self.config = config
        self.worker_index = worker_index
        self.owner = owner or f"w{worker_index}-{os.getpid()}"
        #: full host identity string written into this worker's leases
        #: — survives pid reuse across machines (boot nonce).
        self.host = str(host_identity(config.host_id))
        self.crash = crash
        self.clock = clock
        self.sleep = sleep
        self.leases = LeaseManager(
            self.store.root, ttl=config.lease_ttl, clock=clock,
            crash=crash.check if crash is not None else None,
            max_claims=config.max_unit_claims, host=self.host,
            skew_budget=config.clock_skew_budget)
        self.stats: Dict[str, int] = {key: 0 for key in _WORKER_STAT_KEYS}
        #: set when the shared store became unusable and the worker
        #: parked — worker_main turns it into exit 2.
        self.storage_parked = False
        self._rng = random.Random(self.owner)

    # -- unit bookkeeping -------------------------------------------------

    def _resolved(self, unit: WorkUnit) -> bool:
        return (self.store.has_snapshot(unit.ixp, unit.family, unit.date)
                or self.leases.abandoned(unit.key))

    def _pending_units(self) -> List[WorkUnit]:
        return [unit for unit in self.config.units
                if not self._resolved(unit)]

    def _staging_root(self, unit: WorkUnit, token: int) -> Path:
        return self.store.root / STAGING_DIR / f"{unit.key}.t{token}"

    # -- main loop --------------------------------------------------------

    def run(self) -> Dict[str, Any]:
        """Work until every unit is resolved; returns the worker
        report the coordinator aggregates.

        A :class:`~repro.io.faultfs.StorageUnavailable` (full disk,
        persistent I/O errors) parks the worker instead of spinning:
        the loop stops, ``storage_parked`` is set, and
        :func:`worker_main` exits 2 — resumable once storage heals.
        """
        backoff = FullJitterBackoff(
            base=self.config.steal_backoff_base,
            cap=self.config.steal_backoff_cap,
            rng=self._rng, sleep=self.sleep)
        try:
            while True:
                pending = self._pending_units()
                if not pending:
                    break
                progress = False
                offset = self.worker_index % len(pending)
                for unit in pending[offset:] + pending[:offset]:
                    if self._resolved(unit):
                        continue
                    lease = self.leases.claim(unit.key, self.owner)
                    if lease is None:
                        self.stats["claim_contention"] += 1
                        continue
                    self.stats["leases_claimed"] += 1
                    if lease.stolen:
                        self.stats["leases_stolen"] += 1
                    progress = True
                    backoff.reset()
                    self._work_unit(unit, lease)
                if not progress:
                    # full-jitter backoff, the client's discipline
                    # against thundering-herd rescans of a fully
                    # leased unit list.
                    backoff.pause()
        except StorageUnavailable:
            self.stats["storage_parked"] += 1
            self.storage_parked = True
        return self.report()

    def report(self) -> Dict[str, Any]:
        self.stats["lease_ambiguity_resolved"] = \
            self.leases.ambiguity_resolved
        self.stats["clock_skew_observed"] = self.leases.skew_observations
        payload = {"owner": self.owner, "host": self.host,
                   "worker_index": self.worker_index,
                   "stats": dict(self.stats)}
        fault_counts = getattr(active_fs(), "fault_counts", None)
        if fault_counts:
            payload["fs_faults"] = dict(fault_counts)
        return payload

    # -- one unit ---------------------------------------------------------

    def _campaign_config(self, unit: WorkUnit) -> CampaignConfig:
        config = self.config
        return CampaignConfig(
            base_url=config.base_url,
            targets=[CampaignTarget(ixp=unit.ixp, family=unit.family,
                                    dialect=unit.dialect)],
            captured_on=unit.date,
            peer_attempts=config.peer_attempts,
            snapshot_deadline=config.snapshot_deadline,
            checkpoint_every=config.checkpoint_every,
            io=config.io,
            max_inflight=config.max_inflight,
            breaker_threshold=config.breaker_threshold,
            breaker_reset=config.breaker_reset,
            max_retries=config.max_retries,
            request_timeout=config.request_timeout,
            backoff_base=config.backoff_base,
            backoff_cap=config.backoff_cap,
        )

    def _work_unit(self, unit: WorkUnit, lease: Lease) -> None:
        if self.crash is not None:
            self.crash.check("unit:claimed")
        staging_store = DatasetStore(
            self._staging_root(unit, lease.token),
            crash_schedule=self.crash,
            snapshot_codec=self.config.snapshot_codec)
        self._adopt_checkpoint(unit, lease, staging_store)

        campaign = CollectionCampaign(staging_store,
                                      self._campaign_config(unit))
        lost = threading.Event()

        def on_lost() -> None:
            # the lease is gone: park at the next safe boundary; the
            # commit fence below keeps whatever we staged out of the
            # merged tree.
            lost.set()
            campaign.request_shutdown()

        heartbeat = _Heartbeat(self.leases, lease,
                               self.config.resolved_heartbeat(), on_lost)
        heartbeat.start()
        try:
            report = campaign.run(resume=True)
        finally:
            heartbeat.stop()
        self.stats["leases_renewed"] += heartbeat.renewals

        target = report.targets[0] if report.targets else None
        collected = (target is not None
                     and target.status in (STATUS_COMPLETE,
                                           STATUS_DEGRADED)
                     and staging_store.has_snapshot(
                         unit.ixp, unit.family, unit.date))
        if collected:
            if self.crash is not None:
                self.crash.check("unit:collected")
            self.commit(unit, lease, staging_store)
        else:
            # parked (deadline / lost lease / LG failure): the staging
            # checkpoint stays for the next claimant to adopt.
            self.stats["units_parked"] += 1
            if lost.is_set():
                self.stats["leases_lost"] += 1
            elif self.leases.release(lease):
                self.stats["leases_released"] += 1

    def _adopt_checkpoint(self, unit: WorkUnit, lease: Lease,
                          staging_store: DatasetStore) -> bool:
        """Carry a dead predecessor's progress forward: the newest
        verified checkpoint among lower-token staging dirs seeds this
        claim's store, so re-collection resumes at the first
        un-collected peer instead of from scratch. The predecessor's
        journal is replayed and written here as one genesis segment."""
        for token in range(lease.token - 1, 0, -1):
            old_root = self._staging_root(unit, token)
            if not old_root.is_dir():
                continue
            payload = DatasetStore(old_root).load_checkpoint(
                unit.ixp, unit.family, unit.date)
            if payload:
                staging_store.save_checkpoint(
                    unit.ixp, unit.family, unit.date, payload)
                self.stats["checkpoints_adopted"] += 1
                return True
        return False

    # -- commit (the fencing check) ---------------------------------------

    def commit(self, unit: WorkUnit, lease: Lease,
               staging_store: DatasetStore) -> bool:
        """Merge a staged shard into the main tree — only if this
        worker still holds the unit's current lease.

        The check-and-publish is belt and braces: the token check
        catches a zombie whose lease was stolen, and the publish
        itself is create-exclusive, so even a zombie that races past
        the check cannot clobber a committed snapshot. A denied commit
        moves the whole staging store to ``quarantine/zombie/`` with a
        sidecar record — late writes are quarantined, never merged.
        """
        current = self.leases.current(unit.key)
        if (current is None or current.token != lease.token
                or not current.same_holder(self.owner, self.host)
                or current.released):
            self._quarantine_zombie(unit, lease, staging_store,
                                    "lease lost before commit "
                                    "(fencing token mismatch)")
            return False
        source = staging_store._snapshot_path(unit.ixp, unit.family,
                                              unit.date)
        try:
            published = self.store.publish_snapshot_file(
                unit.ixp, unit.family, unit.date, source)
        except IntegrityError:
            # the staged bytes are damaged — never merge them
            self._quarantine_zombie(unit, lease, staging_store,
                                    "staged snapshot failed "
                                    "verification")
            return False
        if published is None:
            self._quarantine_zombie(unit, lease, staging_store,
                                    "unit already published by "
                                    "another worker")
            return False
        if self.leases.release(lease):
            self.stats["leases_released"] += 1
        self.stats["units_completed"] += 1
        self._cleanup_staging(unit, up_to_token=lease.token)
        return True

    def _quarantine_zombie(self, unit: WorkUnit, lease: Lease,
                           staging_store: DatasetStore,
                           reason: str) -> None:
        self.stats["zombie_quarantines"] += 1
        source = Path(staging_store.root)
        destination = (self.store.root / QUARANTINE_DIR / "zombie"
                       / source.name)
        suffix = 0
        final = destination
        while final.exists():
            suffix += 1
            final = destination.with_name(f"{destination.name}.{suffix}")
        final.parent.mkdir(parents=True, exist_ok=True)
        if source.is_dir():
            os.replace(source, final)
        record = {
            "version": 1,
            "unit": unit.key,
            "owner": self.owner,
            "host": self.host,
            "token": lease.token,
            "reason": reason,
            "moved_to": final.relative_to(self.store.root).as_posix(),
            "quarantined_at": _utcnow(),
        }
        atomic_write(
            final.parent / (final.name + ".zombie.json"),
            (json.dumps(record, indent=1, sort_keys=True)
             + "\n").encode("utf-8"),
            kind="zombie")

    def _cleanup_staging(self, unit: WorkUnit,
                         up_to_token: int) -> None:
        """Drop staging dirs this commit superseded (their content was
        merged or re-collected; damaged artefacts inside were already
        quarantined by their own stores)."""
        for token in range(1, up_to_token + 1):
            root = self._staging_root(unit, token)
            if root.is_dir():
                shutil.rmtree(root, ignore_errors=True)


# -- worker subprocess entry ---------------------------------------------

def worker_main(argv: Sequence[str]) -> int:
    """``python -m repro.collector.dispatch <spec-json>`` — the worker
    subprocess entry. The spec carries the store root, the worker's
    index/owner id, and the full DispatchConfig; a crash plan (chaos
    harness only) arrives through :data:`CRASH_PLAN_ENV`."""
    spec = json.loads(argv[0])
    config = DispatchConfig.from_dict(spec["config"])
    worker_index = int(spec["worker_index"])
    crash: Optional[CrashSchedule] = None
    raw_plan = os.environ.get(CRASH_PLAN_ENV)
    if raw_plan:
        crash = WorkerCrashSchedule.from_json(raw_plan).for_worker(
            worker_index)
    # chaos harness: a seeded filesystem fault plan shipped through the
    # environment turns this worker's store I/O adversarial.
    install_from_env()
    worker = DispatchWorker(spec["store"], config, worker_index,
                            owner=spec.get("owner"), crash=crash)
    report = worker.run()
    print(WORKER_REPORT_PREFIX + json.dumps(report), flush=True)
    return WORKER_STORAGE_EXIT if worker.storage_parked else 0


# -- coordinator ---------------------------------------------------------

@dataclass
class UnitOutcome:
    """Terminal view of one work unit after a dispatch run."""

    ixp: str
    family: int
    date: str
    status: str = UNIT_PENDING
    #: fencing tokens burned — claims across all workers and runs.
    claims: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {"ixp": self.ixp, "family": self.family,
                "date": self.date, "status": self.status,
                "claims": self.claims}


@dataclass
class DispatchReport:
    """Outcome of one coordinator run."""

    units: List[UnitOutcome] = field(default_factory=list)
    workers_spawned: int = 0
    worker_restarts: int = 0
    worker_crashes: int = 0
    #: workers that exited 2 — parked on unusable storage, resumable.
    worker_parks: int = 0
    worker_reports: List[Dict[str, Any]] = field(default_factory=list)
    totals: Dict[str, int] = field(default_factory=dict)
    #: injected filesystem fault counts aggregated across workers
    #: (``op:kind`` → count; empty outside the chaos harness).
    fs_faults: Dict[str, int] = field(default_factory=dict)
    #: final fsck audit over the merged store (None = verify off).
    fsck_clean: Optional[bool] = None
    run_report_path: Optional[str] = None

    @property
    def complete(self) -> bool:
        return bool(self.units) and all(
            unit.status == UNIT_COMPLETE for unit in self.units)

    @property
    def resumable(self) -> bool:
        """Units remain claimable — re-run with ``--dispatch`` to
        converge (abandoned units are terminal, not resumable)."""
        return any(unit.status == UNIT_PENDING for unit in self.units)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "units": [unit.to_dict() for unit in self.units],
            "workers_spawned": self.workers_spawned,
            "worker_restarts": self.worker_restarts,
            "worker_crashes": self.worker_crashes,
            "worker_parks": self.worker_parks,
            "worker_reports": list(self.worker_reports),
            "totals": dict(self.totals),
            "fs_faults": dict(self.fs_faults),
            "complete": self.complete,
            "resumable": self.resumable,
            "fsck_clean": self.fsck_clean,
            "run_report_path": self.run_report_path,
        }

    def format_summary(self) -> str:
        by_status: Dict[str, int] = {}
        for unit in self.units:
            by_status[unit.status] = by_status.get(unit.status, 0) + 1
        headline = ("dispatch: "
                    + ", ".join(f"{count} {status}" for status, count
                                in sorted(by_status.items()))
                    + f" — {self.workers_spawned} workers"
                    + (f", {self.worker_restarts} restarted"
                       if self.worker_restarts else "")
                    + (f", {self.worker_crashes} crashed"
                       if self.worker_crashes else "")
                    + (f", {self.worker_parks} parked on storage"
                       if self.worker_parks else ""))
        lines = [headline]
        for unit in self.units:
            retried = (f" ({unit.claims} claims)"
                       if unit.claims > 1 else "")
            lines.append(f"  {unit.ixp}/v{unit.family}/{unit.date}: "
                         f"{unit.status}{retried}")
        interesting = {key: value for key, value in
                       sorted(self.totals.items()) if value}
        if interesting:
            lines.append("  workers: " + ", ".join(
                f"{value} {key}" for key, value in interesting.items()))
        if self.fsck_clean is not None:
            lines.append("  merged store fsck: "
                         + ("clean" if self.fsck_clean else "DAMAGED"))
        if self.resumable:
            lines.append("  incomplete units parked — re-run with "
                         "--dispatch to continue")
        return "\n".join(lines)


class _WorkerProc:
    """One spawned worker subprocess plus its collected output."""

    def __init__(self, index: int, process: subprocess.Popen) -> None:
        self.index = index
        self.process = process
        self.report: Optional[Dict[str, Any]] = None
        self.returncode: Optional[int] = None

    def collect(self, timeout: Optional[float] = None) -> None:
        stdout, _stderr = self.process.communicate(timeout=timeout)
        self.returncode = self.process.returncode
        for line in (stdout or "").splitlines():
            if line.startswith(WORKER_REPORT_PREFIX):
                try:
                    self.report = json.loads(
                        line[len(WORKER_REPORT_PREFIX):])
                except ValueError:
                    self.report = None


class DispatchCoordinator:
    """Spawns, monitors, restarts, and reaps dispatch workers.

    Every piece of campaign state lives in the store (leases, staging
    shards, published snapshots), so the coordinator itself is
    expendable: kill it at any instant and a re-run picks up exactly
    where the store says the campaign is. Dispatch is incremental by
    construction — units whose snapshot is already published are never
    re-collected (delete the snapshot to force one).
    """

    def __init__(self, store: DatasetStore,
                 config: DispatchConfig) -> None:
        self.store = store
        self.config = config
        self.leases = LeaseManager(store.root, ttl=config.lease_ttl,
                                   max_claims=config.max_unit_claims)

    # -- unit status ------------------------------------------------------

    def _unit_status(self, unit: WorkUnit) -> str:
        if self.store.has_snapshot(unit.ixp, unit.family, unit.date):
            return UNIT_COMPLETE
        if self.leases.abandoned(unit.key):
            return UNIT_ABANDONED
        return UNIT_PENDING

    def _all_resolved(self) -> bool:
        return all(self._unit_status(unit) != UNIT_PENDING
                   for unit in self.config.units)

    # -- worker lifecycle -------------------------------------------------

    def _spawn(self, index: int) -> _WorkerProc:
        spec = {
            "store": str(self.store.root),
            "worker_index": index,
            "owner": f"w{index}",
            "config": self.config.to_dict(),
        }
        env = dict(os.environ)
        # the worker must import this exact source tree, however the
        # coordinator itself was launched.
        src = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        if self.config.crash_plan is not None:
            env[CRASH_PLAN_ENV] = self.config.crash_plan.to_json()
        if self.config.fs_fault_plan is not None:
            env[FAULT_PLAN_ENV] = json.dumps(self.config.fs_fault_plan,
                                             sort_keys=True)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.collector.dispatch",
             json.dumps(spec)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env)
        _METRICS().workers.inc()
        return _WorkerProc(index, process)

    # -- the run ----------------------------------------------------------

    def run(self) -> DispatchReport:
        report = DispatchReport()
        metrics = _METRICS()
        # materialise every family so /metrics and run reports expose
        # zeroes rather than omitting quiet series.
        metrics.restarts.inc(0)
        metrics.zombies.inc(0)
        metrics.retries.inc(0)
        metrics.ambiguity.inc(0)
        metrics.skew.inc(0)
        metrics.parked_workers.inc(0)
        for event in ("claimed", "stolen", "renewed", "released"):
            metrics.leases.labels(event).inc(0)

        claims_before = {unit.key: self.leases.claims(unit.key)
                         for unit in self.config.units}
        alive: Dict[int, _WorkerProc] = {}
        finished: List[_WorkerProc] = []
        restarts_left = self.config.resolved_restarts()
        next_index = self.config.workers
        with obs.span("dispatch"):
            try:
                for index in range(max(1, self.config.workers)):
                    alive[index] = self._spawn(index)
                    report.workers_spawned += 1
                while alive:
                    if self._all_resolved():
                        break
                    for index, worker in list(alive.items()):
                        if worker.process.poll() is None:
                            continue
                        worker.collect()
                        metrics.workers.dec()
                        finished.append(worker)
                        del alive[index]
                        if worker.returncode == WORKER_STORAGE_EXIT:
                            # parked on unusable storage: restarting
                            # into the same full disk helps no one.
                            report.worker_parks += 1
                            metrics.parked_workers.inc()
                        elif worker.returncode != 0:
                            report.worker_crashes += 1
                            if restarts_left > 0 \
                                    and not self._all_resolved():
                                restarts_left -= 1
                                report.worker_restarts += 1
                                metrics.restarts.inc()
                                alive[next_index] = self._spawn(
                                    next_index)
                                report.workers_spawned += 1
                                next_index += 1
                    if alive:
                        time.sleep(self.config.poll_interval)
            finally:
                self._drain(alive, finished, report, metrics)
        self._finalise(report, claims_before, metrics)
        return report

    def _drain(self, alive: Dict[int, _WorkerProc],
               finished: List[_WorkerProc], report: DispatchReport,
               metrics: Any) -> None:
        """Wait for the survivors (they exit on their own once every
        unit is resolved), escalating to terminate/kill on a stuck
        worker, then collect every report."""
        deadline = time.monotonic() + self.config.worker_grace
        for worker in alive.values():
            budget = max(0.1, deadline - time.monotonic())
            try:
                worker.collect(timeout=budget)
            except subprocess.TimeoutExpired:
                worker.process.terminate()
                try:
                    worker.collect(timeout=5.0)
                except subprocess.TimeoutExpired:
                    worker.process.kill()
                    worker.collect()
            metrics.workers.dec()
            finished.append(worker)
            if worker.returncode == WORKER_STORAGE_EXIT:
                report.worker_parks += 1
                metrics.parked_workers.inc()
            elif worker.returncode != 0:
                report.worker_crashes += 1
        alive.clear()
        totals: Dict[str, int] = {key: 0 for key in _WORKER_STAT_KEYS}
        fault_totals: Dict[str, int] = {}
        for worker in finished:
            if worker.report is None:
                continue
            report.worker_reports.append(worker.report)
            for key, value in worker.report.get("stats", {}).items():
                totals[key] = totals.get(key, 0) + int(value)
            for key, value in worker.report.get("fs_faults",
                                                {}).items():
                fault_totals[key] = fault_totals.get(key, 0) \
                    + int(value)
        report.totals = totals
        report.fs_faults = fault_totals
        metrics.leases.labels("claimed").inc(totals["leases_claimed"])
        metrics.leases.labels("stolen").inc(totals["leases_stolen"])
        metrics.leases.labels("renewed").inc(totals["leases_renewed"])
        metrics.leases.labels("released").inc(
            totals["leases_released"])
        metrics.zombies.inc(totals["zombie_quarantines"])
        metrics.ambiguity.inc(totals["lease_ambiguity_resolved"])
        metrics.skew.inc(totals["clock_skew_observed"])
        # injected filesystem faults observed by worker subprocesses
        # become visible in this process's /metrics exposition.
        record_fault_counts(fault_totals)

    def _finalise(self, report: DispatchReport,
                  claims_before: Dict[str, int], metrics: Any) -> None:
        for unit in self.config.units:
            outcome = UnitOutcome(ixp=unit.ixp, family=unit.family,
                                  date=unit.date,
                                  status=self._unit_status(unit),
                                  claims=self.leases.claims(unit.key))
            report.units.append(outcome)
            metrics.units.labels(outcome.status).inc()
            retries = max(0, outcome.claims
                          - max(1, claims_before[unit.key] + 1)) \
                if outcome.claims else 0
            if retries:
                metrics.retries.inc(retries)
            if outcome.status == UNIT_COMPLETE:
                self._cleanup_unit_staging(unit)
        if self.config.verify:
            report.fsck_clean = fsck_store(self.store).clean
        if obs.enabled():
            report.run_report_path = str(self.store.save_run_report(
                f"dispatch-{utc_today()}",
                obs.build_run_report("dispatch",
                                     meta=report.to_dict())))

    def _cleanup_unit_staging(self, unit: WorkUnit) -> None:
        """Drop staging debris of merged units (left by killed
        workers; quarantined zombies already moved out)."""
        staging = self.store.root / STAGING_DIR
        if not staging.is_dir():
            return
        for path in staging.glob(f"{unit.key}.t*"):
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(worker_main(sys.argv[1:]))
