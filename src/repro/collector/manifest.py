"""Per-directory artefact manifests.

Every manifest scope — one per IXP directory, plus the ``reports/``
directory — carries a ``MANIFEST.json`` mapping scope-relative paths
to integrity metadata::

    {"artefact":"repro.artefact","version":2,"kind":"manifest",
     "sha256":"<digest of the payload bytes>","payload":{
       "version": 1,
       "entries": {
         "v4/2021-07-19.json.gz": {
           "sha256": "…", "size": 1234, "kind": "snapshot",
           "updated": "2021-07-19T02:00:00+00:00"
         },
         "dictionary.json": {…}
       }
     }}

(indented here; the file is compact). The per-entry ``sha256`` is the
digest the artefact's own envelope declares — over its payload bytes
as written (version 2) or its canonical payload JSON (version 1) — so
either side can validate the other: a stale manifest is detectable
against a self-consistent file, and a corrupted file is detectable
against the manifest even if its embedded digest was corrupted with it.

The manifest file itself is just another enveloped artefact: written
atomically, self-checksummed (not gzipped, so its envelope digest is
the only check on its bytes), and verified on load. A version-1
manifest still loads, and is saved as version 2.
"""

from __future__ import annotations

import datetime as _dt
from pathlib import Path
from typing import Any, Dict, Optional

from ..io.faultfs import active_fs, with_fs_retries
from .integrity import (
    CrashHook,
    IntegrityError,
    atomic_write,
    decode_artefact,
    encode_artefact,
)

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_VERSION = 1


def _utcnow() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat(
        timespec="seconds")


class Manifest:
    """The integrity ledger of one store scope (IXP or reports dir)."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.path = self.directory / MANIFEST_NAME
        self.entries: Dict[str, Dict[str, Any]] = {}
        #: set when load() found a manifest it could not verify — the
        #: damage is reported through fsck, not hidden.
        self.load_error: Optional[IntegrityError] = None

    # -- persistence -----------------------------------------------------

    @classmethod
    def load(cls, directory: Path, strict: bool = False) -> "Manifest":
        """Read a scope's manifest; a missing file is an empty ledger.

        With ``strict=False`` (runtime reads) a damaged manifest
        degrades to an empty ledger with ``load_error`` set, so stores
        stay writable and fsck can still report and repair the damage.
        With ``strict=True`` the :class:`IntegrityError` propagates.
        """
        manifest = cls(directory)
        try:
            data = with_fs_retries(
                lambda: active_fs().read_bytes(manifest.path),
                label="manifest:read")
        except FileNotFoundError:
            return manifest
        try:
            payload, _digest, _self = decode_artefact(
                data, kind="manifest", gz=False, path=manifest.path)
            entries = payload.get("entries")
            if not isinstance(entries, dict):
                raise IntegrityError("manifest entries is not an object",
                                     manifest.path)
        except IntegrityError as error:
            if strict:
                raise
            manifest.load_error = error
            return manifest
        manifest.entries = {str(k): dict(v) for k, v in entries.items()
                            if isinstance(v, dict)}
        return manifest

    def save(self, crash: Optional[CrashHook] = None,
             durable: bool = True) -> int:
        """Atomically publish the ledger; returns the fsync count."""
        payload = {"version": MANIFEST_VERSION, "entries": self.entries}
        data, _digest = encode_artefact(payload, "manifest", gz=False)
        return atomic_write(self.path, data, kind="manifest",
                            crash=crash, durable=durable)

    # -- entry bookkeeping ----------------------------------------------

    def record(self, rel: str, sha256: str, size: int,
               kind: str) -> None:
        self.entries[rel] = {
            "sha256": sha256,
            "size": size,
            "kind": kind,
            "updated": _utcnow(),
        }

    def remove(self, rel: str) -> bool:
        return self.entries.pop(rel, None) is not None

    def get(self, rel: str) -> Optional[Dict[str, Any]]:
        return self.entries.get(rel)

    def __contains__(self, rel: str) -> bool:
        return rel in self.entries

    def __len__(self) -> int:
        return len(self.entries)
