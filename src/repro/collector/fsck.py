"""Store auditing and repair (``repro-study fsck``).

Walks every artefact in a :class:`~repro.collector.store.DatasetStore`
— snapshots, checkpoints, dictionaries, run reports, and the manifests
themselves — and verifies each one both ways: the file against its
embedded envelope digest, and the file against its manifest entry.
Checkpoint journals (:mod:`repro.collector.journal`) have no manifest
entries; each is verified as a chain instead.

Findings are classified with the shared damage taxonomy
(:mod:`repro.collector.integrity`):

========================  ==============================================
class                     meaning
========================  ==============================================
``truncated``             gzip stream ends before its end marker
``malformed``             not gzip / corrupt deflate / invalid JSON
``checksum_mismatch``     a digest disagrees (gzip CRC, envelope,
                          or manifest vs a legacy file)
``schema_drift``          parseable but the wrong shape/kind/version
``missing_manifest_entry``  a healthy file the manifest does not know
                          (under a damaged manifest, only a legacy file)
``manifest_drift``        a self-consistent file whose manifest entry
                          is stale (e.g. crash between rename and
                          manifest publish)
``missing_file``          a manifest entry whose file is gone
``orphan_temp``           ``*.tmp`` debris from an interrupted write
``orphaned_dispatch``     lease or staging dirs idle past the reclaim
                          age
``torn_segment``          a checkpoint journal segment that fails
                          verification or breaks the chain (and every
                          segment after it)
``orphan_segment``        journal segments with no valid genesis, or a
                          journal beside its published snapshot
========================  ==============================================

With ``repair=True`` damaged files are **quarantined, never deleted**,
stale/missing manifest records are rewritten from the surviving
verified files, and dangling entries are dropped. A second fsck over a
repaired store is clean.
"""

from __future__ import annotations

import shutil
import time
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .. import obs
from . import journal
from .integrity import (
    DAMAGE_CHECKSUM,
    DAMAGE_CLASSES,
    DAMAGE_MANIFEST_DRIFT,
    DAMAGE_MISSING_ENTRY,
    DAMAGE_MISSING_FILE,
    DAMAGE_ORPHAN_SEGMENT,
    DAMAGE_ORPHAN_TEMP,
    DAMAGE_ORPHANED,
    IntegrityError,
    decode_artefact,
    is_temp_artefact,
)
from .manifest import MANIFEST_NAME, Manifest, _utcnow
from .store import (
    AGGREGATE_SUFFIX,
    CHECKPOINT_SUFFIX,
    LEASES_DIR,
    QUARANTINE_DIR,
    REPORTS_DIR,
    STAGING_DIR,
    DatasetStore,
)

#: age (seconds) past which dispatch coordination state — lease dirs
#: and staging stores no live campaign can still be using — counts as
#: orphaned. A week dwarfs any sane lease TTL or campaign runtime, so
#: a freshly crashed (still resumable) run is never flagged.
DEFAULT_RECLAIM_AGE = 7 * 24 * 3600.0

_METRICS = obs.MetricSet(lambda reg: types.SimpleNamespace(
    runs=reg.counter(
        "repro_store_fsck_runs_total",
        "fsck passes, by outcome (clean / damaged)", ("outcome",)),
    findings=reg.counter(
        "repro_store_fsck_findings_total",
        "fsck findings, by damage class", ("class",)),
    artefacts=reg.counter(
        "repro_store_fsck_artefacts_total",
        "Artefacts examined by fsck, by verification outcome",
        ("outcome",)),
))

#: repair actions recorded on findings.
ACTION_QUARANTINED = "quarantined"
ACTION_MANIFEST_UPDATED = "manifest_updated"
ACTION_ENTRY_DROPPED = "entry_dropped"
ACTION_RECLAIMED = "reclaimed"


@dataclass
class FsckFinding:
    """One piece of damage found by an fsck pass."""

    path: str            # store-relative path
    kind: str            # snapshot / checkpoint / dictionary / ...
    damage_class: str
    detail: str
    #: what --repair did about it (None on audit-only passes).
    action: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {"path": self.path, "kind": self.kind,
                "class": self.damage_class, "detail": self.detail,
                "action": self.action}


@dataclass
class FsckReport:
    """Outcome of one fsck pass over a store."""

    root: str = ""
    repaired: bool = False
    scanned: int = 0       # artefact files examined
    verified: int = 0      # fully healthy (file + manifest agree)
    findings: List[FsckFinding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def counts(self) -> Dict[str, int]:
        counts = {cls: 0 for cls in DAMAGE_CLASSES}
        for finding in self.findings:
            counts[finding.damage_class] = \
                counts.get(finding.damage_class, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, Any]:
        return {
            "root": self.root,
            "repaired": self.repaired,
            "scanned": self.scanned,
            "verified": self.verified,
            "clean": self.clean,
            "counts": {cls: count for cls, count in self.counts.items()
                       if count},
            "findings": [f.to_dict() for f in self.findings],
        }

    def format_summary(self) -> str:
        verdict = "clean" if self.clean else "DAMAGED"
        lines = [f"fsck {self.root}: {verdict} — {self.scanned} "
                 f"artefacts scanned, {self.verified} verified, "
                 f"{len(self.findings)} findings"]
        for cls, count in sorted(self.counts.items()):
            if count:
                lines.append(f"  {cls}: {count}")
        for finding in self.findings:
            action = f" [{finding.action}]" if finding.action else ""
            lines.append(f"  {finding.damage_class}: {finding.path} "
                         f"({finding.detail}){action}")
        return "\n".join(lines)


def _classify_path(scope_name: str, path: Path) -> Optional[
        Tuple[str, bool]]:
    """``(kind, is_gzip)`` for an artefact path, or None for files
    fsck does not manage (quarantine sidecars live outside scopes)."""
    name = path.name
    if scope_name == REPORTS_DIR:
        return ("report", False) if name.endswith(".json") else None
    if name == "dictionary.json":
        return "dictionary", False
    if journal.is_segment(path):
        # checked before the generic snapshot rule: segments share the
        # .json.gz extension and are verified per journal.
        return "segment", True
    if name.endswith(CHECKPOINT_SUFFIX):
        return "checkpoint", True
    if name.endswith(AGGREGATE_SUFFIX):
        # checked before the generic snapshot rule: cache artefacts
        # share the .json.gz extension but carry the aggregate kind.
        return "aggregate", True
    if name.endswith(".json.gz"):
        return "snapshot", True
    return None


def fsck_store(store: DatasetStore, repair: bool = False, *,
               reclaim_age: float = DEFAULT_RECLAIM_AGE,
               now: Optional[float] = None) -> FsckReport:
    """Audit (and with ``repair=True``, heal) every artefact in a
    store. Never deletes data: repair quarantines damaged files and
    rewrites manifests.

    The reserved dispatch directories are audited too: lease dirs and
    staging stores older than *reclaim_age* are reported as
    ``orphaned_dispatch`` and, with ``repair=True``, reclaimed — lease
    dirs (pure coordination state; with no lease at all a zombie's
    commit is denied by the ownership re-check) and merged staging
    dirs are removed, while staging dirs whose unit never published
    are moved to quarantine, never deleted.
    """
    report = FsckReport(root=str(store.root), repaired=repair)
    with obs.span("fsck"):
        scopes = [store.root / ixp for ixp in store.ixps()]
        if (store.root / REPORTS_DIR).is_dir():
            scopes.append(store.root / REPORTS_DIR)
        for scope in scopes:
            _fsck_scope(store, scope, report, repair)
        _fsck_dispatch_state(store, report, repair, reclaim_age,
                             time.time() if now is None else now)
    metrics = _METRICS()
    metrics.runs.labels("clean" if report.clean else "damaged").inc()
    for finding in report.findings:
        metrics.findings.labels(finding.damage_class).inc()
    return report


def _fsck_scope(store: DatasetStore, scope: Path, report: FsckReport,
                repair: bool) -> None:
    try:
        manifest = Manifest.load(scope, strict=True)
        manifest_healthy = True
    except IntegrityError as error:
        manifest = Manifest(scope)
        manifest_healthy = False
        finding = FsckFinding(
            path=(scope / MANIFEST_NAME).relative_to(
                store.root).as_posix(),
            kind="manifest", damage_class=error.damage_class,
            detail=str(error))
        if repair:
            store.quarantine(scope / MANIFEST_NAME, error)
            finding.action = ACTION_QUARANTINED
        report.findings.append(finding)
    manifest_dirty = not manifest_healthy and repair

    seen: Dict[str, Tuple[str, int, str]] = {}
    present: set = set()
    journals: set = set()
    for path in sorted(p for p in scope.rglob("*") if p.is_file()):
        if path.name == MANIFEST_NAME:
            continue
        rel_store = path.relative_to(store.root).as_posix()
        rel_scope = path.relative_to(scope).as_posix()
        if is_temp_artefact(path):
            finding = FsckFinding(
                path=rel_store, kind="temp",
                damage_class=DAMAGE_ORPHAN_TEMP,
                detail="interrupted write left temp debris")
            if repair:
                error = IntegrityError(
                    "orphan temp file from an interrupted write", path)
                error.damage_class = DAMAGE_ORPHAN_TEMP
                store.quarantine(path, error)
                finding.action = ACTION_QUARANTINED
            report.findings.append(finding)
            continue
        classified = _classify_path(scope.name, path)
        if classified is None:
            continue  # not an artefact this store manages
        kind, gz = classified
        if kind == "segment":
            journals.add(path.parent)
            continue
        present.add(rel_scope)
        report.scanned += 1
        try:
            _payload, digest, self_verified = decode_artefact(
                path.read_bytes(), kind=kind, gz=gz, path=path)
        except IntegrityError as error:
            _METRICS().artefacts.labels("failed").inc()
            finding = FsckFinding(path=rel_store, kind=kind,
                                  damage_class=error.damage_class,
                                  detail=str(error))
            if repair:
                store.quarantine(path, error)
                finding.action = ACTION_QUARANTINED
                manifest.remove(rel_scope)
                manifest_dirty = True
            report.findings.append(finding)
            continue
        _METRICS().artefacts.labels("ok").inc()
        size = path.stat().st_size
        seen[rel_scope] = (digest, size, kind)

        entry = manifest.get(rel_scope)
        if entry is None:
            if repair:
                manifest.record(rel_scope, digest, size, kind)
                manifest_dirty = True
            if self_verified and not manifest_healthy:
                report.verified += 1  # the damaged manifest is the finding
                continue
            report.findings.append(FsckFinding(
                path=rel_store, kind=kind,
                damage_class=DAMAGE_MISSING_ENTRY,
                detail="verified file absent from the manifest",
                action=ACTION_MANIFEST_UPDATED if repair else None))
        elif entry.get("sha256") != digest:
            if self_verified:
                # the file vouches for itself; the ledger is stale
                # (classic crash between rename and manifest publish).
                finding = FsckFinding(
                    path=rel_store, kind=kind,
                    damage_class=DAMAGE_MANIFEST_DRIFT,
                    detail="self-consistent file, stale manifest entry")
                if repair:
                    manifest.record(rel_scope, digest, size, kind)
                    manifest_dirty = True
                    finding.action = ACTION_MANIFEST_UPDATED
                report.findings.append(finding)
            else:
                # a legacy file cannot vouch for itself and the
                # manifest disagrees: treat the bytes as damaged.
                error = IntegrityError(
                    "manifest digest disagrees with un-enveloped file",
                    path)
                error.damage_class = DAMAGE_CHECKSUM
                finding = FsckFinding(
                    path=rel_store, kind=kind,
                    damage_class=error.damage_class,
                    detail=str(error))
                if repair:
                    store.quarantine(path, error)
                    finding.action = ACTION_QUARANTINED
                    manifest.remove(rel_scope)
                    manifest_dirty = True
                report.findings.append(finding)
        else:
            report.verified += 1

    for directory in sorted(journals):
        _fsck_journal(store, directory, report, repair)

    for rel_scope in sorted(set(manifest.entries) - present):
        entry = manifest.entries[rel_scope]
        finding = FsckFinding(
            path=(scope / rel_scope).relative_to(store.root).as_posix(),
            kind=str(entry.get("kind", "artefact")),
            damage_class=DAMAGE_MISSING_FILE,
            detail="manifest entry has no file on disk")
        if repair:
            manifest.remove(rel_scope)
            manifest_dirty = True
            finding.action = ACTION_ENTRY_DROPPED
        report.findings.append(finding)

    if repair and manifest_dirty:
        if not manifest_healthy:
            # rebuild from scratch out of the verified survivors
            manifest.entries = {}
            for rel_scope, (digest, size, kind) in seen.items():
                manifest.record(rel_scope, digest, size, kind)
        manifest.save()


def _fsck_journal(store: DatasetStore, directory: Path,
                  report: FsckReport, repair: bool) -> None:
    """Verify one checkpoint journal as a chain: its verified prefix
    is healthy unless the snapshot it was building is published."""
    def read(path: Path) -> Tuple[Dict[str, Any], str]:
        payload, digest, _self_verified = decode_artefact(
            path.read_bytes(), kind="checkpoint", gz=True, path=path)
        return payload, digest

    replay = journal.replay(directory, read)
    damaged = list(replay.dropped)
    if _journal_snapshot_published(store, directory):
        for path, _payload, _digest in replay.segments:
            error = IntegrityError(
                "journal beside its published snapshot", path)
            error.damage_class = DAMAGE_ORPHAN_SEGMENT
            damaged.append(error)
    else:
        report.verified += len(replay.segments)
    report.scanned += len(replay.segments) + len(replay.dropped)
    _METRICS().artefacts.labels("ok").inc(len(replay.segments))
    _METRICS().artefacts.labels("failed").inc(len(replay.dropped))
    for error in sorted(damaged, key=lambda e: str(e.path)):
        finding = FsckFinding(
            path=error.path.relative_to(store.root).as_posix(),
            kind="checkpoint", damage_class=error.damage_class,
            detail=str(error))
        if repair:
            store.quarantine(error.path, error)
            finding.action = ACTION_QUARANTINED
        report.findings.append(finding)
    if repair and damaged:
        try:
            directory.rmdir()
        except OSError:
            pass  # other entries (temp debris) remain


def _journal_snapshot_published(store: DatasetStore,
                                 directory: Path) -> bool:
    """Whether the snapshot a journal
    (``<ixp>/v<family>/<date>.ckpt``) was building is published."""
    ixp = directory.parent.parent.name
    family = directory.parent.name[1:]
    date = directory.name[:-len(journal.JOURNAL_SUFFIX)]
    try:
        return store.has_snapshot(ixp, int(family), date)
    except ValueError:
        return False


# -- dispatch coordination state (leases/ + staging/) --------------------

def _lease_age(directory: Path, now: float) -> Optional[float]:
    """Age in seconds of a unit's lease dir, judged by its most recent
    sign of activity: the newest of any lease's ``renewed_at`` stamp
    and any lease file's mtime.  Taking the maximum keeps a lease held
    by a host whose wall clock runs behind (its ``renewed_at`` stamps
    look old, but its writes keep the mtime fresh) from being judged
    orphaned.  None for an empty/unreadable dir."""
    best: Optional[float] = None
    for path in directory.glob("*.lease.json"):
        stamps = []
        try:
            payload, _digest, _self = decode_artefact(
                path.read_bytes(), kind="lease", gz=False, path=path)
            stamps.append(float(payload["renewed_at"]))
        except (IntegrityError, OSError, KeyError, TypeError,
                ValueError):
            pass
        try:
            stamps.append(path.stat().st_mtime)
        except OSError:
            pass
        for stamp in stamps:
            if best is None or stamp > best:
                best = stamp
    if best is None:
        return None
    return now - best


def _newest_mtime(directory: Path) -> Optional[float]:
    try:
        newest = directory.stat().st_mtime
    except OSError:
        return None
    for path in directory.rglob("*"):
        try:
            newest = max(newest, path.stat().st_mtime)
        except OSError:
            continue
    return newest


def _staging_unit_published(store: DatasetStore, name: str) -> bool:
    """Whether the unit behind a staging dir name
    (``<ixp>__v<family>__<date>.t<token>``) has a published snapshot."""
    stem, _sep, _token = name.rpartition(".t")
    parts = stem.split("__")
    if len(parts) != 3 or not parts[1].startswith("v"):
        return False
    try:
        family = int(parts[1][1:])
    except ValueError:
        return False
    try:
        return store.has_snapshot(parts[0], family, parts[2])
    except ValueError:
        return False


def _fsck_dispatch_state(store: DatasetStore, report: FsckReport,
                         repair: bool, reclaim_age: float,
                         now: float) -> None:
    """Audit the reserved ``leases/`` and ``staging/`` directories.

    Both are *coordination* state: lease dirs gate claims, staging
    dirs hold in-flight shard output. A crashed-but-resumable campaign
    leaves both behind legitimately, so only age past *reclaim_age*
    makes them findings. Reclaiming a lease dir is safe with respect
    to fencing — a zombie commit re-reads the current lease, and "no
    lease at all" fails that ownership check exactly like a stolen
    one; it does reset the unit's claim budget, which is the point of
    reclaiming an abandoned unit.
    """
    leases_root = store.root / LEASES_DIR
    if leases_root.is_dir():
        for unit_dir in sorted(p for p in leases_root.iterdir()
                               if p.is_dir()):
            age = _lease_age(unit_dir, now)
            if age is None:
                mtime = _newest_mtime(unit_dir)
                age = (now - mtime) if mtime is not None else None
            if age is None or age <= reclaim_age:
                continue
            finding = FsckFinding(
                path=unit_dir.relative_to(store.root).as_posix(),
                kind="lease", damage_class=DAMAGE_ORPHANED,
                detail=f"lease dir idle for {age:.0f}s "
                       f"(> {reclaim_age:.0f}s reclaim age)")
            if repair:
                shutil.rmtree(unit_dir, ignore_errors=True)
                finding.action = ACTION_RECLAIMED
            report.findings.append(finding)

    staging_root = store.root / STAGING_DIR
    if staging_root.is_dir():
        for shard_dir in sorted(p for p in staging_root.iterdir()
                                if p.is_dir()):
            mtime = _newest_mtime(shard_dir)
            age = (now - mtime) if mtime is not None else None
            if age is None or age <= reclaim_age:
                continue
            published = _staging_unit_published(store, shard_dir.name)
            finding = FsckFinding(
                path=shard_dir.relative_to(store.root).as_posix(),
                kind="staging", damage_class=DAMAGE_ORPHANED,
                detail=f"staging store idle for {age:.0f}s "
                       f"(> {reclaim_age:.0f}s reclaim age; unit "
                       + ("published)" if published
                          else "never published)"))
            if repair:
                if published:
                    # the unit's snapshot made it into the main tree —
                    # this shard is superseded debris.
                    shutil.rmtree(shard_dir, ignore_errors=True)
                else:
                    # unpublished collection output: quarantine,
                    # never delete.
                    destination = (store.root / QUARANTINE_DIR
                                   / "orphan" / shard_dir.name)
                    suffix = 0
                    final = destination
                    while final.exists():
                        suffix += 1
                        final = destination.with_name(
                            f"{destination.name}.{suffix}")
                    final.parent.mkdir(parents=True, exist_ok=True)
                    shutil.move(str(shard_dir), str(final))
                    sidecar = final.parent / (final.name
                                              + ".orphan.json")
                    sidecar.write_text(
                        '{"reclaimed_at": "' + _utcnow()
                        + '", "original": "'
                        + (STAGING_DIR + "/" + shard_dir.name)
                        + '"}\n', encoding="utf-8")
                finding.action = ACTION_RECLAIMED
            report.findings.append(finding)
