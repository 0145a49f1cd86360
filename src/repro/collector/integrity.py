"""Artefact integrity: taxonomy, envelopes, atomic writes, crash hooks.

The store's durability contract (see :mod:`repro.collector.store`) is
built from four small pieces that live here so every artefact kind —
snapshots, checkpoints, dictionaries, run reports, manifests — shares
one implementation:

* an **error taxonomy** (:class:`IntegrityError` and friends) that
  turns raw tracebacks (``EOFError`` deep inside gzip, ``KeyError``
  inside a deserialiser) into typed, classified damage;
* a **payload envelope**: every artefact is stored as
  ``{"artefact":"repro.artefact","version":2,"kind":...,
  "sha256":<digest of the payload bytes as written>,"payload":...}``
  so a file can vouch for itself, and the same digest is mirrored in
  the per-IXP ``MANIFEST.json`` so either side can validate the other.
  Version-1 files (digest of the canonical payload JSON) still read;
  a version-2 file re-serialised by hand no longer verifies;
* an **atomic write** helper: unique temp name in the same directory,
  ``fsync`` of the file, ``rename``, ``fsync`` of the directory — a
  reader can never observe a partially written artefact, and a crash
  at any instant leaves only invisible ``*.tmp`` debris;
* a :class:`CrashSchedule` fault-injection hook mirroring the
  simulated LG's ``FaultSchedule`` idiom: deterministic,
  boundary-indexed, and able to kill the process (or raise a
  :class:`SimulatedCrash`) at any write boundary — the substrate of
  the ``tests/chaos`` harness.

Everything is introspectable with ``zcat`` and ``jq``; the envelope is
plain JSON around the old payload.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import itertools
import json
import os
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..io.faultfs import active_fs, with_fs_retries
from .snapshot import REQUIRED_PAYLOAD_KEYS as _SNAPSHOT_KEYS

#: magic marker distinguishing enveloped artefacts from legacy payloads.
ARTEFACT_MAGIC = "repro.artefact"
#: the envelope version every writer produces; readers also accept 1.
ENVELOPE_VERSION = 2

#: damage classes — the vocabulary shared by errors, quarantine
#: records, fsck findings, and metrics labels.
DAMAGE_TRUNCATED = "truncated"
DAMAGE_MALFORMED = "malformed"
DAMAGE_CHECKSUM = "checksum_mismatch"
DAMAGE_SCHEMA = "schema_drift"
DAMAGE_MISSING_ENTRY = "missing_manifest_entry"
DAMAGE_MANIFEST_DRIFT = "manifest_drift"
DAMAGE_MISSING_FILE = "missing_file"
DAMAGE_ORPHAN_TEMP = "orphan_temp"
DAMAGE_ORPHANED = "orphaned_dispatch"
#: a checkpoint journal segment that fails verification or does not
#: chain onto the one before it (see :mod:`repro.collector.journal`).
DAMAGE_TORN_SEGMENT = "torn_segment"
#: journal segments nothing can resume from: no valid genesis, or the
#: whole journal sits beside the snapshot it was building.
DAMAGE_ORPHAN_SEGMENT = "orphan_segment"

DAMAGE_CLASSES = (
    DAMAGE_TRUNCATED, DAMAGE_MALFORMED, DAMAGE_CHECKSUM, DAMAGE_SCHEMA,
    DAMAGE_MISSING_ENTRY, DAMAGE_MANIFEST_DRIFT, DAMAGE_MISSING_FILE,
    DAMAGE_ORPHAN_TEMP, DAMAGE_ORPHANED, DAMAGE_TORN_SEGMENT,
    DAMAGE_ORPHAN_SEGMENT,
)

#: top-level keys an artefact payload must carry, per kind — the
#: schema-drift tripwire (deep validation stays in the deserialisers).
REQUIRED_PAYLOAD_KEYS: Dict[str, Tuple[str, ...]] = {
    "snapshot": _SNAPSHOT_KEYS,
    "checkpoint": ("version", "peers"),
    "dictionary": ("ixp", "entries"),
    "report": ("version", "kind", "metrics"),
    "manifest": ("version", "entries"),
    "aggregate": ("version", "key", "aggregate"),
    "lease": ("version", "unit", "owner", "token", "renewed_at", "ttl"),
}


# -- error taxonomy ------------------------------------------------------

class IntegrityError(Exception):
    """An on-disk artefact failed verification.

    ``damage_class`` is one of the module's ``DAMAGE_*`` constants;
    ``path`` (when known) is the offending file. After a self-healing
    loader quarantines the file, the resulting
    :class:`QuarantineRecord` is attached as ``record``.
    """

    damage_class = DAMAGE_MALFORMED

    def __init__(self, message: str, path: Optional[Path] = None) -> None:
        super().__init__(message)
        self.path = path
        self.record: Optional["QuarantineRecord"] = None


class TruncatedArtefactError(IntegrityError):
    """The gzip stream ends before its end-of-stream marker."""

    damage_class = DAMAGE_TRUNCATED


class MalformedArtefactError(IntegrityError):
    """Not gzip / corrupt deflate data / invalid JSON / not an object."""

    damage_class = DAMAGE_MALFORMED


class ChecksumMismatchError(IntegrityError):
    """A digest disagreement: gzip CRC, envelope sha256, or manifest."""

    damage_class = DAMAGE_CHECKSUM


class SchemaDriftError(IntegrityError):
    """Parseable, but not the artefact we expect (version, kind, keys)."""

    damage_class = DAMAGE_SCHEMA


# -- digests and envelopes ----------------------------------------------

def payload_digest(payload: Any) -> str:
    """A version-1 envelope's digest: the sha256 of the canonical
    payload JSON (sorted keys, compact separators)."""
    return hashlib.sha256(json.dumps(
        payload, separators=(",", ":"),
        sort_keys=True).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class EncodedJSON:
    """One JSON value serialised once, in insertion order, as chunks.

    Encoding is context-free (compact separators, ASCII escapes), so a
    value encoded once can be spliced into any number of enclosing
    objects and the result is byte-identical to encoding the whole
    document in one ``json.dumps`` call. Campaign checkpoints use this
    to encode each peer once instead of at every flush. Splicing
    copies no bytes; an artefact is joined once, when it is written.
    """

    parts: Tuple[bytes, ...]

    @classmethod
    def of(cls, value: Any) -> "EncodedJSON":
        """Encode *value* (returned unchanged if already encoded)."""
        if isinstance(value, EncodedJSON):
            return value
        return cls((json.dumps(value, separators=(",", ":"))
                    .encode("utf-8"),))

    @classmethod
    def of_object(cls, members: Mapping[str, Any]) -> "EncodedJSON":
        """A JSON object, in the mapping's order, whose values may
        themselves be :class:`EncodedJSON`."""
        parts = [b"{"]
        for key, value in members.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, "
                                f"got {type(key).__name__}")
            parts += (json.dumps(key).encode("utf-8"), b":",
                      *cls.of(value).parts, b",")
        if len(parts) > 1:
            parts.pop()  # the last member's comma
        parts.append(b"}")
        return cls(tuple(parts))


def _envelope_head(version: Any, kind: Any, sha256: Any) -> bytes:
    """Every envelope byte before the payload: the compact head object
    reopened for its last member, ``"payload"``."""
    head = json.dumps({
        "artefact": ARTEFACT_MAGIC,
        "version": version,
        "kind": kind,
        "sha256": sha256,
    }, separators=(",", ":")).encode("utf-8")
    return head[:-1] + b',"payload":'


def encode_artefact(payload: Any, kind: str, *, gz: bool,
                    compresslevel: int = 9) -> Tuple[bytes, str]:
    """Wrap *payload* in a version-2 integrity envelope and serialise it.

    *payload* is a JSON-ready value or an :class:`EncodedJSON` built
    from one; both give the same bytes. Returns ``(file_bytes,
    sha256)``: the digest covers the payload bytes exactly as they sit
    in the (uncompressed) file, so it does not depend on compression
    settings, and it is the value mirrored into the manifest.
    """
    parts = EncodedJSON.of(payload).parts
    sha256 = hashlib.sha256()
    for part in parts:
        sha256.update(part)
    digest = sha256.hexdigest()
    body = b"".join((_envelope_head(ENVELOPE_VERSION, kind, digest),
                     *parts, b"}"))
    if gz:
        # mtime=0 keeps identical payloads byte-identical on disk.
        body = gzip.compress(body, compresslevel=compresslevel, mtime=0)
    return body, digest


def decode_artefact(data: bytes, *, kind: str, gz: bool,
                    path: Optional[Path] = None,
                    ) -> Tuple[Any, str, bool]:
    """Parse and verify one artefact's raw file bytes.

    Returns ``(payload, sha256, self_verified)`` where
    ``self_verified`` is True for enveloped artefacts whose embedded
    digest matched (legacy, pre-envelope files parse with
    ``self_verified=False`` and a freshly computed digest). A
    version-2 digest is checked against the payload bytes as written,
    version-1 and legacy ones against the canonical re-encoding.

    Raises the :class:`IntegrityError` taxonomy on any damage.
    """
    if gz:
        if len(data) < 2 or data[:2] != b"\x1f\x8b":
            raise MalformedArtefactError(
                "not a gzip stream (bad magic bytes)", path)
        try:
            body = gzip.decompress(data)
        except EOFError as error:
            raise TruncatedArtefactError(
                f"truncated gzip stream: {error}", path) from error
        except gzip.BadGzipFile as error:
            # valid magic but a failed CRC/length trailer: the payload
            # bytes changed after they were written.
            raise ChecksumMismatchError(
                f"gzip integrity check failed: {error}", path) from error
        except zlib.error as error:
            raise MalformedArtefactError(
                f"corrupt deflate data: {error}", path) from error
        except OSError as error:
            raise MalformedArtefactError(
                f"unreadable gzip stream: {error}", path) from error
    else:
        body = data
    try:
        document = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise MalformedArtefactError(
            f"invalid JSON: {error}", path) from error
    if not isinstance(document, dict):
        raise MalformedArtefactError(
            f"artefact is not a JSON object "
            f"(got {type(document).__name__})", path)

    if document.get("artefact") == ARTEFACT_MAGIC:
        version = document.get("version")
        if not isinstance(version, int) or version not in (1, ENVELOPE_VERSION):
            raise SchemaDriftError(
                f"unsupported envelope version {version!r}", path)
        if document.get("kind") != kind:
            raise SchemaDriftError(
                f"artefact kind is {document.get('kind')!r}, "
                f"expected {kind!r}", path)
        payload = document.get("payload")
        if not isinstance(payload, dict):
            raise SchemaDriftError("envelope payload is not an object",
                                   path)
        declared = document.get("sha256")
        if version == ENVELOPE_VERSION:
            # the head its writer produced must open the body byte for
            # byte; the digest covers every byte between it and "}".
            head = _envelope_head(version, kind, declared)
            if not body.startswith(head) or not body.endswith(b"}"):
                raise ChecksumMismatchError(
                    "envelope head is not as written (re-serialised "
                    "or damaged bytes)", path)
            digest = hashlib.sha256(
                memoryview(body)[len(head):-1]).hexdigest()
        else:
            digest = payload_digest(payload)
        if declared != digest:
            raise ChecksumMismatchError(
                f"embedded sha256 {str(declared)[:12]}… does not match "
                f"payload digest {digest[:12]}…", path)
        self_verified = True
    else:
        payload, self_verified = document, False
        digest = payload_digest(payload)

    missing = [key for key in REQUIRED_PAYLOAD_KEYS.get(kind, ())
               if key not in payload]
    if missing:
        raise SchemaDriftError(
            f"{kind} payload is missing keys: {', '.join(missing)}",
            path)
    return payload, digest, self_verified


# -- crash injection -----------------------------------------------------

class SimulatedCrash(BaseException):
    """Raised by :class:`CrashSchedule` in ``raise`` mode.

    Derives from ``BaseException`` so ``except Exception`` cleanup
    paths do not swallow it — a simulated crash must leave the same
    debris a real ``kill -9`` would.
    """

    def __init__(self, label: str, index: int) -> None:
        super().__init__(f"simulated crash at write boundary "
                         f"#{index} ({label})")
        self.label = label
        self.index = index


@dataclass
class CrashSchedule:
    """Deterministic, boundary-indexed crash plan for a store.

    Mirrors the LG's ``FaultSchedule`` idiom: the store calls
    :meth:`check` at every write boundary (labelled
    ``<kind>:begin`` / ``<kind>:temp`` / ``<kind>:renamed``), the
    schedule counts them, and at the configured point it either raises
    :class:`SimulatedCrash` (in-process tests) or calls ``os._exit``
    (subprocess chaos tests — no ``atexit``, no ``finally``, exactly
    like a kill). With no trigger configured it only records, which is
    how tests enumerate a run's boundaries before choosing where to
    crash on the next one.
    """

    #: crash at this global boundary index (0-based); None disables.
    crash_at: Optional[int] = None
    #: restrict the trigger to boundaries with this exact label.
    label: Optional[str] = None
    #: with ``label`` set: crash on the Nth (1-based) occurrence.
    occurrence: int = 1
    #: "raise" → SimulatedCrash; "exit" → os._exit(exit_code).
    action: str = "raise"
    exit_code: int = 86
    #: every boundary label seen, in order (the enumeration log).
    log: List[str] = field(default_factory=list)
    _label_counts: Dict[str, int] = field(default_factory=dict,
                                          repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def check(self, label: str) -> None:
        with self._lock:
            index = len(self.log)
            self.log.append(label)
            count = self._label_counts.get(label, 0) + 1
            self._label_counts[label] = count
        if self.label is not None:
            triggered = label == self.label and count == self.occurrence
        else:
            triggered = self.crash_at is not None and index == self.crash_at
        if not triggered:
            return
        if self.action == "exit":
            os._exit(self.exit_code)
        raise SimulatedCrash(label, index)

    @property
    def boundaries_seen(self) -> int:
        with self._lock:
            return len(self.log)


#: signature of the crash hook threaded through atomic writes.
CrashHook = Callable[[str], None]


def _noop_crash(_label: str) -> None:
    return None


# -- atomic writes -------------------------------------------------------

_TMP_COUNTER = itertools.count()
#: suffix of in-flight temp files; never matches ``*.json[.gz]`` globs.
TMP_SUFFIX = ".tmp"


def is_temp_artefact(path: Path) -> bool:
    return path.name.endswith(TMP_SUFFIX)


def fsync_directory(directory: Path) -> bool:
    """Flush a directory entry; False where the platform refuses."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return False
    try:
        os.fsync(fd)
        return True
    except OSError:
        return False
    finally:
        os.close(fd)


def atomic_write(path: Path, data: bytes, *, kind: str = "artefact",
                 crash: Optional[CrashHook] = None,
                 durable: bool = True) -> int:
    """Atomically publish *data* at *path*; returns the fsync count.

    Write boundaries (in order): ``<kind>:begin`` before the temp file
    exists, ``<kind>:temp`` after the temp file is fully written and
    fsynced, ``<kind>:renamed`` after the rename. A crash at any of
    them leaves either the old file or the new file visible — never a
    partial one — plus at most one orphan ``*.tmp``.

    A failed write (any ordinary exception) removes its temp file; a
    :class:`SimulatedCrash` deliberately does not.

    All filesystem calls go through :func:`repro.io.faultfs.active_fs`
    and transient faults (``EIO``/``ESTALE``) are retried with the
    shared full-jitter backoff; fatal ones (``ENOSPC``) escape as
    :class:`~repro.io.faultfs.StorageUnavailable`.
    """
    crash = crash or _noop_crash
    fs = active_fs()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.parent / (
        f".{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}{TMP_SUFFIX}")
    fsyncs = [0]
    crash(f"{kind}:begin")

    def write_temp() -> None:
        # idempotent under retry: the temp file is ours alone and is
        # rewritten from scratch on every attempt.
        with fs.open(temporary, "wb") as handle:
            handle.write(data)
            handle.flush()
            if durable:
                fs.fsync(handle.fileno())
                fsyncs[0] += 1

    def rename_into_place() -> None:
        try:
            fs.replace(temporary, path)
        except FileNotFoundError:
            # an ambiguously-failed earlier replace may have already
            # consumed the temp file; the temp name is unique to this
            # call, so temp-gone + target-present proves it was ours.
            if not os.path.exists(temporary) and os.path.exists(path):
                return
            raise

    try:
        with_fs_retries(write_temp, label=f"{kind}:write")
        crash(f"{kind}:temp")
        with_fs_retries(rename_into_place, label=f"{kind}:rename")
    except Exception:
        # note: SimulatedCrash is a BaseException and intentionally
        # skips this cleanup — crash debris is the point.
        with contextlib.suppress(OSError):
            temporary.unlink()
        raise
    if durable and fsync_directory(path.parent):
        fsyncs[0] += 1
    crash(f"{kind}:renamed")
    return fsyncs[0]


def atomic_publish(path: Path, data: bytes, *, kind: str = "artefact",
                   crash: Optional[CrashHook] = None,
                   durable: bool = True) -> Optional[int]:
    """Create-exclusive variant of :func:`atomic_write`.

    Publishes *data* at *path* only if nothing is there yet: the temp
    file is hard-linked into place (``os.link`` fails with ``EEXIST``
    instead of clobbering), so when two writers race, exactly one wins
    and the loser learns it lost. Returns the fsync count on success,
    or ``None`` when another writer already published — the storage
    side of a fencing check: a late (zombie) writer cannot overwrite a
    committed artefact even if its lease bookkeeping is stale.

    Write boundaries: ``<kind>:begin``, ``<kind>:temp``,
    ``<kind>:published``.

    Under an ambiguous ``link()`` fault (the operation succeeded on
    the server but an error came back) the retry observes ``EEXIST``
    and this function returns ``None`` exactly as if another writer
    won — callers that care (``publish_snapshot_file``) resolve the
    ambiguity by comparing the published content's digest to their
    own.
    """
    crash = crash or _noop_crash
    fs = active_fs()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.parent / (
        f".{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}{TMP_SUFFIX}")
    fsyncs = [0]
    crash(f"{kind}:begin")

    def write_temp() -> None:
        with fs.open(temporary, "wb") as handle:
            handle.write(data)
            handle.flush()
            if durable:
                fs.fsync(handle.fileno())
                fsyncs[0] += 1

    try:
        with_fs_retries(write_temp, label=f"{kind}:write")
        crash(f"{kind}:temp")
        try:
            with_fs_retries(lambda: fs.link(temporary, path),
                            label=f"{kind}:link")
        except FileExistsError:
            return None
        finally:
            with contextlib.suppress(OSError):
                temporary.unlink()
    except Exception:
        with contextlib.suppress(OSError):
            temporary.unlink()
        raise
    if durable and fsync_directory(path.parent):
        fsyncs[0] += 1
    crash(f"{kind}:published")
    return fsyncs[0]


# -- quarantine records --------------------------------------------------

@dataclass
class QuarantineRecord:
    """Machine-readable sidecar written next to a quarantined file."""

    original: str          # store-relative path the file came from
    moved_to: str          # store-relative path inside quarantine/
    damage_class: str
    detail: str
    quarantined_at: str    # ISO-8601 UTC timestamp
    size: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": 1,
            "original": self.original,
            "moved_to": self.moved_to,
            "damage_class": self.damage_class,
            "detail": self.detail,
            "quarantined_at": self.quarantined_at,
            "size": self.size,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "QuarantineRecord":
        return cls(
            original=str(payload["original"]),
            moved_to=str(payload["moved_to"]),
            damage_class=str(payload["damage_class"]),
            detail=str(payload.get("detail", "")),
            quarantined_at=str(payload.get("quarantined_at", "")),
            size=int(payload.get("size", 0)),
        )
