"""On-disk dataset store — durable and self-healing.

The paper releases "a twelve-week dataset containing daily snapshots …
and a dictionary containing more than 3000 communities". This store
keeps the same two artefacts:

* one gzipped JSON file per snapshot under
  ``<root>/<ixp>/v<family>/<date>.json.gz``, and
* one JSON dictionary file per IXP under
  ``<root>/<ixp>/dictionary.json``,

plus campaign checkpoint journals (``<date>.ckpt/<seq>.json.gz`` —
see :mod:`repro.collector.journal`), observability run reports
(``reports/*.json``), content-addressed aggregate-cache artefacts
(``<ixp>/cache/<key>.agg.json.gz`` — see :mod:`repro.core.engine`),
and a ``MANIFEST.json`` per IXP (and one for ``reports/``) recording
every artefact's SHA-256 except journal segments, which the envelope
digest and the journal's digest chain vouch for.

Durability contract (see :mod:`repro.collector.integrity`):

* **atomic writes** — temp file in the same directory + fsync +
  rename; a reader can never observe a partially written artefact and
  a crash at any instant leaves at most invisible ``*.tmp`` debris;
* **verified reads** — every load checks the gzip framing, the JSON,
  the envelope's embedded SHA-256, the payload schema, and the
  manifest, raising the typed :class:`IntegrityError` taxonomy
  instead of raw tracebacks;
* **self-healing** — a damaged artefact is moved (never deleted) to
  ``<root>/quarantine/`` with a machine-readable sidecar record;
  iterators and ``latest_snapshot`` skip it, campaign resume keeps
  the verified prefix of a checkpoint journal whose tail is damaged,
  and ``repro-study fsck`` (:mod:`repro.collector.fsck`) audits and
  repairs whole stores.

The layout stays boring: everything is introspectable with ``zcat``
and ``jq``.
"""

from __future__ import annotations

import contextlib
import datetime as _dt
import json
import os
import re
import threading
import types
from pathlib import Path
from typing import (
    Any,
    Container,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

try:  # POSIX-only; manifest updates fall back to thread-safety elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from .. import obs
from ..bgp.route import RouteDecodeMemo
from ..io.faultfs import StorageUnavailable, active_fs, with_fs_retries
from ..ixp.dictionary import CommunityDictionary
from . import journal
from .integrity import (
    ChecksumMismatchError,
    CrashSchedule,
    EncodedJSON,
    IntegrityError,
    QuarantineRecord,
    SchemaDriftError,
    atomic_publish,
    atomic_write,
    decode_artefact,
    encode_artefact,
    fsync_directory,
)
from .manifest import MANIFEST_NAME, Manifest, _utcnow
from .snapshot import Snapshot

#: suffix of the single-file checkpoints older versions wrote; resume
#: discards them (``version_drift``).
CHECKPOINT_SUFFIX = ".ckpt.json.gz"

#: suffix of content-addressed aggregate-cache artefacts, stored under
#: ``<root>/<ixp>/cache/<key>.agg.json.gz``.
AGGREGATE_SUFFIX = ".agg.json.gz"

#: per-IXP subdirectory holding aggregate-cache artefacts.
CACHE_DIR = "cache"

#: top-level directory holding JSON run reports (metrics + traces),
#: kept apart from the per-IXP snapshot tree.
REPORTS_DIR = "reports"

#: top-level directory damaged artefacts are moved to — never deleted.
QUARANTINE_DIR = "quarantine"

#: top-level directory holding per-unit dispatch lease files
#: (see :mod:`repro.collector.dispatch`).
LEASES_DIR = "leases"

#: top-level directory holding per-(unit, fencing-token) worker staging
#: stores; shard output lives here until a lease-checked commit merges
#: it into the main tree.
STAGING_DIR = "staging"

#: directory names that can never be IXP keys.
RESERVED_DIRS = (REPORTS_DIR, QUARANTINE_DIR, LEASES_DIR, STAGING_DIR)

#: per-scope lock file serialising manifest read-modify-write cycles
#: across worker *processes* (``flock``; released automatically if the
#: holder is killed). Invisible to fsck and artefact globs.
MANIFEST_LOCK_NAME = ".manifest.lock"

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

_METRICS = obs.MetricSet(lambda reg: types.SimpleNamespace(
    writes=reg.counter(
        "repro_store_writes_total",
        "Artefacts atomically published, by kind", ("kind",)),
    write_bytes=reg.counter(
        "repro_store_written_bytes_total",
        "Bytes atomically published, by artefact kind", ("kind",)),
    fsyncs=reg.counter(
        "repro_store_fsyncs_total",
        "fsync calls issued by atomic writes "
        "(files + directories)").labels(),
    verifications=reg.counter(
        "repro_store_verifications_total",
        "Artefact read verifications, by kind and outcome",
        ("kind", "outcome")),
    integrity_errors=reg.counter(
        "repro_store_integrity_errors_total",
        "Verification failures by damage class", ("class",)),
    quarantines=reg.counter(
        "repro_store_quarantines_total",
        "Artefacts moved to quarantine, by damage class", ("class",)),
))


class DatasetStore:
    """Filesystem-backed store of snapshots and dictionaries."""

    def __init__(self, root: os.PathLike,
                 crash_schedule: Optional[CrashSchedule] = None,
                 snapshot_codec: str = "json") -> None:
        from ..io.columnar import SNAPSHOT_CODECS
        if snapshot_codec not in SNAPSHOT_CODECS:
            raise ValueError(
                f"unknown snapshot codec: {snapshot_codec!r} "
                f"(expected one of {SNAPSHOT_CODECS})")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: fault-injection hook consulted at every write boundary
        #: (None in production — see tests/chaos).
        self.crash_schedule = crash_schedule
        #: payload codec for *newly written* snapshots; reads always
        #: dispatch on each payload's self-described codec, so stores
        #: with mixed formats are fully readable regardless.
        self.snapshot_codec = snapshot_codec
        self._manifest_lock = threading.RLock()
        #: checkpoint journal dir -> ``(seq, prev)`` of its next segment
        self._journal_tails: Dict[Path, Tuple[int, Optional[str]]] = {}
        #: (ixp, family) -> the decode memo of its last snapshot read
        #: (see :meth:`read_snapshot`)
        self._decode_memos: Dict[Tuple[str, int], RouteDecodeMemo] = {}

    # -- naming and validation -------------------------------------------

    @staticmethod
    def _validate_name(name: str, what: str = "ixp") -> str:
        """Reject names that could escape the store root (``..``,
        separators, hidden/temp prefixes) before they reach a path."""
        if (not isinstance(name, str) or not _NAME_RE.match(name)
                or ".." in name):
            raise ValueError(f"invalid {what} name: {name!r}")
        if what == "ixp" and name in RESERVED_DIRS:
            raise ValueError(f"{name!r} is a reserved store directory")
        return name

    @staticmethod
    def _validate_family(family: int) -> int:
        if family not in (4, 6):
            raise ValueError(f"family must be 4 or 6, got {family!r}")
        return family

    @staticmethod
    def _validate_date(date: str) -> str:
        try:
            _dt.date.fromisoformat(date)
        except (TypeError, ValueError) as error:
            raise ValueError(f"invalid snapshot date: {date!r}") \
                from error
        return date

    # -- crash / write plumbing ------------------------------------------

    def _crash(self, label: str) -> None:
        if self.crash_schedule is not None:
            self.crash_schedule.check(label)

    def _scope_dir(self, path: Path) -> Path:
        """The manifest scope (first directory under the root) a path
        belongs to."""
        rel = path.relative_to(self.root)
        return self.root / rel.parts[0]

    @contextlib.contextmanager
    def _manifest_guard(self, scope: Path) -> Iterator[None]:
        """Critical section for one scope's manifest read-modify-write.

        Threads serialise on the store's RLock as before; on POSIX an
        ``flock`` on ``<scope>/.manifest.lock`` additionally serialises
        concurrent *processes* (dispatch workers committing shards into
        the same IXP scope), so no manifest update is ever lost to a
        read-modify-write race. The OS drops the flock automatically
        when a worker dies, SIGKILL included — a crashed holder can
        never wedge the store.
        """
        with self._manifest_lock:
            handle = None
            if fcntl is not None:
                try:
                    scope.mkdir(parents=True, exist_ok=True)
                    handle = open(scope / MANIFEST_LOCK_NAME, "a+b")
                    fd = handle.fileno()
                    with_fs_retries(
                        lambda: active_fs().flock(fd, fcntl.LOCK_EX),
                        label="manifest:flock")
                except (OSError, StorageUnavailable):
                    # degraded lock: thread-safety still holds; only
                    # cross-process serialisation is lost.
                    if handle is not None:
                        handle.close()
                    handle = None
            try:
                yield
            finally:
                if handle is not None:
                    handle.close()  # closing the fd releases the flock

    def _write_artefact(self, path: Path, payload: Any, kind: str, *,
                        gz: bool, compresslevel: int = 9) -> Path:
        data, digest = encode_artefact(payload, kind, gz=gz,
                                       compresslevel=compresslevel)
        scope = self._scope_dir(path)
        rel = path.relative_to(scope).as_posix()
        # the rename and the manifest entry form one critical section:
        # two writers of one path cannot leave one's bytes under the
        # other's recorded digest.
        with self._manifest_guard(scope):
            fsyncs = atomic_write(path, data, kind=kind, crash=self._crash)
            manifest = Manifest.load(scope)
            manifest.record(rel, digest, len(data), kind)
            fsyncs += manifest.save(crash=self._crash)
        metrics = _METRICS()
        metrics.writes.labels(kind).inc()
        metrics.write_bytes.labels(kind).inc(len(data))
        metrics.fsyncs.inc(fsyncs)
        return path

    def _forget_manifest_entry(self, path: Path) -> None:
        scope = self._scope_dir(path)
        rel = path.relative_to(scope).as_posix()
        with self._manifest_guard(scope):
            manifest = Manifest.load(scope)
            if manifest.remove(rel):
                fsyncs = manifest.save(crash=self._crash)
                _METRICS().fsyncs.inc(fsyncs)

    # -- verified reads --------------------------------------------------

    def _read_verified(self, path: Path, kind: str, *, gz: bool,
                       manifest: bool = True) -> Tuple[Any, str]:
        """Read + fully verify one artefact; returns ``(payload,
        sha256)``. Raises the :class:`IntegrityError` taxonomy (after
        metering) on damage. ``manifest=False`` skips the manifest
        cross-check, for artefacts it does not record. An enveloped
        file vouches for itself, so only a legacy file's read loads the
        manifest."""
        data = with_fs_retries(lambda: active_fs().read_bytes(path),
                               label="artefact:read")
        try:
            payload, digest, self_verified = decode_artefact(
                data, kind=kind, gz=gz, path=path)
            entry = None
            if manifest and not self_verified:
                scope = self._scope_dir(path)
                rel = path.relative_to(scope).as_posix()
                with self._manifest_lock:
                    entry = Manifest.load(scope).get(rel)
            if entry is not None and entry.get("sha256") != digest:
                # a legacy (un-enveloped) file cannot vouch for itself;
                # the manifest is the only witness and it disagrees.
                raise ChecksumMismatchError(
                    f"manifest records sha256 "
                    f"{str(entry.get('sha256'))[:12]}… but file "
                    f"digests to {digest[:12]}…", path)
        except IntegrityError as error:
            metrics = _METRICS()
            metrics.verifications.labels(kind, "failed").inc()
            metrics.integrity_errors.labels(error.damage_class).inc()
            raise
        _METRICS().verifications.labels(kind, "ok").inc()
        return payload, digest

    def _load_self_healing(self, path: Path, kind: str, *,
                           gz: bool) -> Tuple[Any, str]:
        """A verified read that quarantines on damage before
        re-raising (the raised error carries ``.record``)."""
        try:
            return self._read_verified(path, kind, gz=gz)
        except IntegrityError as error:
            error.record = self.quarantine(path, error)
            raise

    # -- quarantine ------------------------------------------------------

    def quarantine(self, path: os.PathLike,
                   error: IntegrityError) -> QuarantineRecord:
        """Move a damaged file (never delete) under ``quarantine/``,
        write a machine-readable sidecar record, and drop the file's
        manifest entry."""
        path = Path(path)
        rel = path.relative_to(self.root)
        destination = self.root / QUARANTINE_DIR / rel
        destination.parent.mkdir(parents=True, exist_ok=True)
        final = destination
        suffix = 0
        while final.exists():
            suffix += 1
            final = destination.with_name(f"{destination.name}.{suffix}")
        try:
            size = path.stat().st_size
        except OSError:
            size = 0
        os.replace(path, final)
        record = QuarantineRecord(
            original=rel.as_posix(),
            moved_to=final.relative_to(self.root).as_posix(),
            damage_class=error.damage_class,
            detail=str(error),
            quarantined_at=_utcnow(),
            size=size,
        )
        sidecar = final.parent / (final.name + ".quarantine.json")
        atomic_write(
            sidecar,
            (json.dumps(record.to_dict(), indent=1, sort_keys=True)
             + "\n").encode("utf-8"),
            kind="quarantine", crash=self._crash)
        self._forget_manifest_entry(path)
        _METRICS().quarantines.labels(error.damage_class).inc()
        return record

    def quarantine_records(self) -> List[QuarantineRecord]:
        """Every quarantine sidecar record in the store, sorted by the
        original artefact path."""
        directory = self.root / QUARANTINE_DIR
        if not directory.is_dir():
            return []
        records = []
        for sidecar in sorted(directory.rglob("*.quarantine.json")):
            try:
                with open(sidecar, encoding="utf-8") as handle:
                    records.append(QuarantineRecord.from_dict(
                        json.load(handle)))
            except (OSError, ValueError, KeyError):
                continue  # a torn sidecar must not break the listing
        return sorted(records, key=lambda r: r.original)

    # -- snapshots -----------------------------------------------------

    def _snapshot_path(self, ixp: str, family: int, date: str) -> Path:
        self._validate_name(ixp)
        self._validate_family(family)
        self._validate_date(date)
        return self.root / ixp / f"v{family}" / f"{date}.json.gz"

    def save_snapshot(self, snapshot: Snapshot) -> Path:
        from ..io.columnar import encode_snapshot_payload
        path = self._snapshot_path(
            snapshot.ixp, snapshot.family, snapshot.captured_on)
        payload = encode_snapshot_payload(snapshot, self.snapshot_codec)
        return self._write_artefact(path, payload, "snapshot", gz=True)

    def publish_snapshot_file(self, ixp: str, family: int, date: str,
                              source: Path) -> Optional[Path]:
        """Merge a staged snapshot file into the tree, exclusively.

        The dispatch commit path: *source* (a fully written snapshot
        artefact in a worker's staging store) is verified, then
        hard-linked into place with create-exclusive semantics — if the
        date is already published *with different content*, nothing is
        written and ``None`` comes back, so a late writer can never
        clobber a committed shard. When the published payload equals
        ours (same digest, or the same value under another envelope
        version) the publish is treated as an idempotent success: this
        is how an ambiguous ``link()`` — the NFS retransmit that
        performed the operation but reported an error — is resolved,
        and it also makes the manifest entry converge when the
        ambiguous attempt died before recording it. The entry records
        the digest and size of the file actually published, under the
        cross-process guard, exactly like any other write.

        Raises :class:`IntegrityError` if *source* itself is damaged —
        damaged bytes are never merged.
        """
        data = with_fs_retries(
            lambda: active_fs().read_bytes(Path(source)),
            label="staging:read")
        payload, digest, _self_verified = decode_artefact(
            data, kind="snapshot", gz=True, path=Path(source))
        path = self._snapshot_path(ixp, family, date)
        fsyncs = atomic_publish(path, data, kind="snapshot",
                                crash=self._crash)
        if fsyncs is None:
            # Someone already published. Us (ambiguous link) or a
            # racing winner with the same payload → idempotent
            # success; different content → genuine refusal. Digests
            # of one payload differ across envelope versions, so a
            # digest mismatch falls back to comparing the values.
            try:
                data = with_fs_retries(
                    lambda: active_fs().read_bytes(path),
                    label="publish:verify")
                published, published_digest, _v = decode_artefact(
                    data, kind="snapshot", gz=True, path=path)
            except (OSError, StorageUnavailable, IntegrityError):
                return None
            if published_digest != digest and published != payload:
                return None
            digest, fsyncs = published_digest, 0
        rel = path.relative_to(self._scope_dir(path)).as_posix()
        with self._manifest_guard(self._scope_dir(path)):
            manifest = Manifest.load(self._scope_dir(path))
            manifest.record(rel, digest, len(data), "snapshot")
            fsyncs += manifest.save(crash=self._crash)
        metrics = _METRICS()
        metrics.writes.labels("snapshot").inc()
        metrics.write_bytes.labels("snapshot").inc(len(data))
        metrics.fsyncs.inc(fsyncs)
        return path

    def read_snapshot(self, ixp: str, family: int, date: str, *,
                      heal: bool = True,
                      known: Container[str] = (),
                      ) -> Tuple[Optional[Snapshot], str]:
        """Load + verify one snapshot; returns ``(snapshot, sha256)``
        — the digest is the envelope/manifest payload digest the
        aggregate cache keys on.

        With ``heal=True`` (the default) damaged files raise
        :class:`IntegrityError` *after* being moved to quarantine (the
        error's ``record`` says where). ``heal=False`` verifies but
        never mutates the store — the mode parallel analysis workers
        use, so quarantine and manifest writes stay in one process.

        *known* holds payload digests the caller has already decoded:
        when the verified digest is one of them, the decode is skipped
        and ``(None, sha256)`` comes back. Verification runs in full
        either way, so a known digest only ever answers for bytes that
        hash to it.

        The decode goes through the successor of the memo of the last
        snapshot this store decoded for the same (IXP, family), so
        values that day held are recalled rather than parsed again.
        The memo retains the values of the last two payloads at most
        (see :class:`~repro.bgp.route.RouteDecodeMemo`), and is kept
        only when the decode succeeds.
        """
        path = self._snapshot_path(ixp, family, date)
        if heal:
            payload, digest = self._load_self_healing(
                path, "snapshot", gz=True)
        else:
            payload, digest = self._read_verified(path, "snapshot",
                                                  gz=True)
        if digest in known:
            return None, digest
        from ..io.columnar import decode_snapshot_payload
        series = (ixp, family)
        previous = self._decode_memos.get(series)
        memo = RouteDecodeMemo() if previous is None \
            else previous.successor()
        try:
            snapshot = decode_snapshot_payload(payload, memo)
        except (KeyError, TypeError, ValueError) as error:
            drift = SchemaDriftError(
                f"snapshot payload does not deserialise: {error}", path)
            if heal:
                drift.record = self.quarantine(path, drift) \
                    if path.exists() else None
            raise drift from error
        self._decode_memos[series] = memo
        return snapshot, digest

    def load_snapshot(self, ixp: str, family: int, date: str) -> Snapshot:
        """Load + verify one snapshot.

        Damaged files raise :class:`IntegrityError` *after* being
        moved to quarantine (the error's ``record`` says where).
        """
        return self.read_snapshot(ixp, family, date)[0]

    def convert_snapshot(self, ixp: str, family: int, date: str,
                         codec: str) -> Tuple[Path, bool]:
        """Re-encode one stored snapshot in place with *codec*.

        Returns ``(path, converted)`` — ``converted`` is False when
        the file already used the requested codec. The rewrite is
        verified *before* the original is touched: the re-encoded
        payload must decode back to the identical snapshot value
        (``to_dict()`` equality, which is exactly the JSON payload the
        aggregation pipeline consumes), so a conversion can change
        bytes and digests but never analysis output. The manifest
        entry is refreshed with the new payload digest; the aggregate
        cache keys on that digest, so converted snapshots re-aggregate
        to byte-identical results instead of serving stale entries.
        """
        from ..io.columnar import (
            SNAPSHOT_CODECS,
            decode_snapshot_payload,
            encode_snapshot_payload,
            payload_codec,
        )
        if codec not in SNAPSHOT_CODECS:
            raise ValueError(f"unknown snapshot codec: {codec!r}")
        path = self._snapshot_path(ixp, family, date)
        payload, _digest = self._load_self_healing(path, "snapshot",
                                                   gz=True)
        if payload_codec(payload) == codec:
            return path, False
        snapshot = decode_snapshot_payload(payload)
        converted = encode_snapshot_payload(snapshot, codec)
        if decode_snapshot_payload(converted).to_dict() \
                != snapshot.to_dict():
            raise RuntimeError(
                f"snapshot codec round-trip mismatch for "
                f"{ixp}/v{family}/{date}; refusing to rewrite")
        self._write_artefact(path, converted, "snapshot", gz=True)
        return path, True

    def delete_snapshot(self, ixp: str, family: int, date: str) -> bool:
        path = self._snapshot_path(ixp, family, date)
        if path.exists():
            path.unlink()
            self._forget_manifest_entry(path)
            return True
        return False

    def snapshot_dates(self, ixp: str, family: int) -> List[str]:
        directory = self.root / self._validate_name(ixp) / f"v{family}"
        if not directory.is_dir():
            return []
        return sorted(p.name[:-len(".json.gz")]
                      for p in directory.glob("*.json.gz")
                      if not p.name.endswith(CHECKPOINT_SUFFIX))

    def iter_snapshots(self, ixp: str, family: int,
                       damaged: Optional[List[QuarantineRecord]] = None,
                       ) -> Iterator[Snapshot]:
        """Yield verified snapshots in date order.

        Damaged dates are quarantined and skipped — the series simply
        has a missing day, exactly like a failed collection. Pass a
        list as ``damaged`` to receive their quarantine records.
        """
        for date in self.snapshot_dates(ixp, family):
            try:
                yield self.load_snapshot(ixp, family, date)
            except FileNotFoundError:
                continue  # raced with a concurrent delete/quarantine
            except IntegrityError as error:
                if damaged is not None and error.record is not None:
                    damaged.append(error.record)

    def latest_snapshot(self, ixp: str, family: int,
                        damaged: Optional[List[QuarantineRecord]] = None,
                        ) -> Optional[Snapshot]:
        """The newest *loadable* snapshot, or None: a damaged latest
        file is quarantined and the next-newest date is used instead."""
        for date in reversed(self.snapshot_dates(ixp, family)):
            try:
                return self.load_snapshot(ixp, family, date)
            except FileNotFoundError:
                continue
            except IntegrityError as error:
                if damaged is not None and error.record is not None:
                    damaged.append(error.record)
        return None

    def snapshot_digest(self, ixp: str, family: int,
                        date: str) -> Optional[str]:
        """The manifest-recorded payload digest of one snapshot, or
        None when the manifest cannot vouch for the file (no entry, or
        a size mismatch betraying an unrecorded rewrite). Reads only
        the manifest — never the route data — so cache probes stay
        O(entries), not O(routes)."""
        path = self._snapshot_path(ixp, family, date)
        scope = self._scope_dir(path)
        with self._manifest_lock:
            manifest = Manifest.load(scope)
        return self._vouched_digest(manifest, scope, path)

    def snapshot_series(self, ixp: str, families: Iterable[int],
                        ) -> Dict[int, Tuple[Tuple[str, Optional[str]],
                                             ...]]:
        """Every listed snapshot date of each family, oldest first,
        paired with its :meth:`snapshot_digest` — from one read of the
        IXP's manifest, not one per date."""
        scope = self.root / self._validate_name(ixp)
        with self._manifest_lock:
            manifest = Manifest.load(scope)
        return {family: tuple(
                    (date, self._vouched_digest(
                        manifest, scope,
                        self._snapshot_path(ixp, family, date)))
                    for date in self.snapshot_dates(ixp, family))
                for family in families}

    @staticmethod
    def _vouched_digest(manifest: Manifest, scope: Path,
                        path: Path) -> Optional[str]:
        entry = manifest.get(path.relative_to(scope).as_posix())
        if entry is None:
            return None
        try:
            size = path.stat().st_size
        except OSError:
            return None
        if entry.get("size") != size:
            return None
        digest = entry.get("sha256")
        return str(digest) if digest else None

    def ixps(self) -> List[str]:
        return sorted(p.name for p in self.root.iterdir()
                      if p.is_dir() and p.name not in RESERVED_DIRS)

    # -- aggregate cache ---------------------------------------------------

    def _aggregate_path(self, ixp: str, key: str) -> Path:
        self._validate_name(ixp)
        self._validate_name(key, what="cache key")
        return (self.root / ixp / CACHE_DIR
                / f"{key}{AGGREGATE_SUFFIX}")

    def save_aggregate(self, ixp: str, key: str,
                       payload: Dict) -> Path:
        """Persist one content-addressed aggregate-cache artefact
        (atomic write, manifest-recorded like any other artefact)."""
        return self._write_artefact(self._aggregate_path(ixp, key),
                                    payload, "aggregate", gz=True)

    def load_aggregate(self, ixp: str, key: str) -> Dict:
        """A verified aggregate-cache payload; damaged entries are
        quarantined before the :class:`IntegrityError` re-raises — the
        caller recomputes, it never trusts damaged bytes."""
        payload, _digest = self._load_self_healing(
            self._aggregate_path(ixp, key), "aggregate", gz=True)
        return payload

    def has_aggregate(self, ixp: str, key: str) -> bool:
        return self._aggregate_path(ixp, key).exists()

    def quarantine_aggregate(self, ixp: str, key: str,
                             error: IntegrityError
                             ) -> Optional[QuarantineRecord]:
        """Quarantine one cache entry whose *payload* failed to
        deserialise after envelope verification (schema drift)."""
        path = self._aggregate_path(ixp, key)
        return self.quarantine(path, error) if path.exists() else None

    def aggregate_keys(self, ixp: str) -> List[str]:
        directory = self.root / self._validate_name(ixp) / CACHE_DIR
        if not directory.is_dir():
            return []
        return sorted(p.name[:-len(AGGREGATE_SUFFIX)]
                      for p in directory.glob(f"*{AGGREGATE_SUFFIX}"))

    # -- campaign checkpoints ----------------------------------------------

    def _checkpoint_path(self, ixp: str, family: int, date: str) -> Path:
        """Where an older version kept its single-file checkpoint."""
        self._validate_name(ixp)
        self._validate_family(family)
        self._validate_date(date)
        return self.root / ixp / f"v{family}" / f"{date}{CHECKPOINT_SUFFIX}"

    def _journal_dir(self, ixp: str, family: int, date: str) -> Path:
        self._validate_name(ixp)
        self._validate_family(family)
        self._validate_date(date)
        return (self.root / ixp / f"v{family}"
                / f"{date}{journal.JOURNAL_SUFFIX}")

    def _read_segment(self, path: Path) -> Tuple[Dict[str, Any], str]:
        return self._read_verified(path, "checkpoint", gz=True,
                                   manifest=False)

    def _replay_journal(self, directory: Path,
                        dropped: Optional[List[QuarantineRecord]] = None,
                        ) -> journal.Replay:
        """Replay one journal, quarantining every segment after its
        verified prefix, and remember where the next segment goes."""
        replay = journal.replay(directory, self._read_segment)
        for error in replay.dropped:
            try:
                error.record = self.quarantine(error.path, error)
            except FileNotFoundError:
                continue  # listed, then gone before we could move it
            if dropped is not None:
                dropped.append(error.record)
        self._journal_tails[directory] = replay.tail
        return replay

    def save_checkpoint(self, ixp: str, family: int, date: str,
                        payload: Dict[str, Any]) -> Path:
        """Append one segment to the target's checkpoint journal and
        return its path.

        *payload* holds what the campaign gained since its previous
        flush (values may be :class:`EncodedJSON`); the store adds the
        segment's ``seq`` and ``prev``. Each segment is one atomic
        write (temp + fsync + rename + directory fsync) and no manifest
        update: the envelope digest and the chain vouch for it.
        """
        directory = self._journal_dir(ixp, family, date)
        tail = self._journal_tails.get(directory)
        if tail is None:
            tail = self._replay_journal(directory).tail
        seq, prev = tail
        segment: Dict[str, Any] = {"seq": seq, "prev": prev}
        segment.update((key, value) for key, value in payload.items()
                       if key not in journal.CHAIN_KEYS)
        # each segment is compressed once, so zlib's default level
        # costs little: ~20% fewer bytes than level 1 for ~2x its
        # (small) time.
        data, digest = encode_artefact(EncodedJSON.of_object(segment),
                                       "checkpoint", gz=True,
                                       compresslevel=6)
        fsyncs = 0
        if seq == 0:
            # make the new journal directory's own entry durable
            directory.mkdir(parents=True, exist_ok=True)
            if fsync_directory(directory.parent):
                fsyncs += 1
        path = directory / journal.segment_name(seq)
        fsyncs += atomic_write(path, data, kind="checkpoint",
                               crash=self._crash)
        self._journal_tails[directory] = (seq + 1, digest)
        metrics = _METRICS()
        metrics.writes.labels("checkpoint").inc()
        metrics.write_bytes.labels("checkpoint").inc(len(data))
        metrics.fsyncs.inc(fsyncs)
        return path

    def load_checkpoint(self, ixp: str, family: int, date: str,
                        dropped: Optional[List[QuarantineRecord]] = None,
                        ) -> Optional[Dict]:
        """The target's checkpoint: the verified, chained prefix of its
        journal merged into one dict (see :func:`journal.merge`), or
        None when there is no valid genesis segment.

        Segments after the prefix — torn, unchained, or following one
        that is — are quarantined; pass a list as ``dropped`` to receive
        their quarantine records. The next :meth:`save_checkpoint`
        appends right after the prefix. Without a journal, an older
        version's single-file checkpoint is returned as stored (a
        damaged one is quarantined and gives None).
        """
        replay = self._replay_journal(
            self._journal_dir(ixp, family, date), dropped)
        if replay.segments:
            return replay.payload
        legacy = self._checkpoint_path(ixp, family, date)
        if not legacy.exists():
            return None
        try:
            return self._load_self_healing(legacy, "checkpoint",
                                           gz=True)[0]
        except IntegrityError:
            return None

    def delete_checkpoint(self, ixp: str, family: int, date: str) -> bool:
        """Remove the target's journal, newest segment first (a crash
        part-way leaves a shorter valid prefix), and any older
        single-file checkpoint."""
        directory = self._journal_dir(ixp, family, date)
        self._journal_tails[directory] = (0, None)
        removed = False
        # a listing may lag behind the directory (delayed visibility):
        # list again until it comes back empty.
        for _attempt in range(3):
            segments = journal.list_segments(directory)
            if not segments:
                break
            for _seq, path in reversed(segments):
                with contextlib.suppress(FileNotFoundError):
                    with_fs_retries(
                        lambda path=path: active_fs().unlink(path),
                        label="checkpoint:unlink")
            removed = True
        with contextlib.suppress(OSError):
            directory.rmdir()
        legacy = self._checkpoint_path(ixp, family, date)
        if legacy.exists():
            legacy.unlink()
            self._forget_manifest_entry(legacy)
            removed = True
        return removed

    def has_checkpoint(self, ixp: str, family: int, date: str) -> bool:
        return (bool(journal.list_segments(
                    self._journal_dir(ixp, family, date)))
                or self._checkpoint_path(ixp, family, date).exists())

    def has_snapshot(self, ixp: str, family: int, date: str) -> bool:
        # routed through the active filesystem so delayed-visibility
        # faults can hide a freshly published date from another "host".
        return active_fs().exists(self._snapshot_path(ixp, family, date))

    # -- run reports -------------------------------------------------------

    def _report_path(self, name: str) -> Path:
        self._validate_name(name, what="report")
        return self.root / REPORTS_DIR / f"{name}.json"

    def save_run_report(self, name: str, report: Dict) -> Path:
        """Persist one observability run report (metrics snapshot +
        traces; see :mod:`repro.obs.report`) next to the dataset it
        describes."""
        return self._write_artefact(self._report_path(name), report,
                                    "report", gz=False)

    def load_run_report(self, name: str) -> Dict:
        return self._load_self_healing(self._report_path(name),
                                       "report", gz=False)[0]

    def has_run_report(self, name: str) -> bool:
        return self._report_path(name).exists()

    def run_report_names(self) -> List[str]:
        directory = self.root / REPORTS_DIR
        if not directory.is_dir():
            return []
        return sorted(p.stem for p in directory.glob("*.json")
                      if p.name != MANIFEST_NAME)

    # -- dictionaries ----------------------------------------------------

    def _dictionary_path(self, ixp: str) -> Path:
        return self.root / self._validate_name(ixp) / "dictionary.json"

    def save_dictionary(self, ixp: str,
                        dictionary: CommunityDictionary) -> Path:
        return self._write_artefact(self._dictionary_path(ixp),
                                    dictionary.to_dict(),
                                    "dictionary", gz=False)

    def load_dictionary(self, ixp: str) -> CommunityDictionary:
        path = self._dictionary_path(ixp)
        payload, _digest = self._load_self_healing(path, "dictionary",
                                                   gz=False)
        try:
            return CommunityDictionary.from_dict(payload)
        except (KeyError, TypeError, ValueError) as error:
            drift = SchemaDriftError(
                f"dictionary payload does not deserialise: {error}",
                path)
            drift.record = self.quarantine(path, drift) \
                if path.exists() else None
            raise drift from error

    def has_dictionary(self, ixp: str) -> bool:
        return self._dictionary_path(ixp).exists()

    # -- bulk helpers ------------------------------------------------------

    def summary_table(self, ixp: str, family: int) -> List[Dict[str, int]]:
        """Per-date summary counters — the inputs to Tables 3 and 4."""
        rows = []
        for snapshot in self.iter_snapshots(ixp, family):
            row: Dict[str, int] = {"date": snapshot.captured_on}  # type: ignore[dict-item]
            row.update(snapshot.summary())
            rows.append(row)
        return rows
