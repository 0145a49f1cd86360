"""Append-only campaign checkpoint journals.

A campaign checkpoints after every collected peer. Each (IXP, family,
day) checkpoint is a directory of small enveloped segments,
``<root>/<ixp>/v<family>/<date>.ckpt/<seq:06d>.json.gz``: a flush
appends one segment holding only the peers (and failures) gained since
the previous flush, so its cost is O(new peers), not O(peers so far).

Every segment payload carries its position ``seq`` and ``prev``, the
payload digest of segment ``seq - 1`` as its envelope declares and
verifies it, whatever its envelope version (null for the genesis
segment 0), next to the header fields (:data:`HEADER_KEYS`) that each segment
repeats. The envelope digest vouches for a segment's bytes and ``prev``
chains it to its predecessor, so segments need no manifest entries.

:func:`replay` walks ``seq`` 0, 1, … and keeps the longest prefix that
verifies and chains. From the first missing, damaged or unchained
segment on, everything is dropped: ``torn_segment``, or
``orphan_segment`` when there is no valid genesis to resume from.
:func:`merge` folds a prefix back into one checkpoint dict.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..io.faultfs import active_fs, with_fs_retries
from .integrity import (
    DAMAGE_ORPHAN_SEGMENT,
    DAMAGE_TORN_SEGMENT,
    IntegrityError,
)

#: suffix of a journal directory, next to the snapshot it builds.
JOURNAL_SUFFIX = ".ckpt"

#: fields every segment repeats; a segment whose header differs from
#: the genesis segment's does not belong to the journal.
HEADER_KEYS = ("version", "ixp", "family", "captured_on",
               "dictionary_digest")

#: fields the journal itself adds to each segment payload.
CHAIN_KEYS = ("seq", "prev")

_SEGMENT_RE = re.compile(r"^(\d{6})\.json\.gz$")

#: reads and verifies one segment: ``(payload, sha256)``, or raises
#: :class:`IntegrityError` (damage) / ``FileNotFoundError`` (gone).
SegmentReader = Callable[[Path], Tuple[Dict[str, Any], str]]


def segment_name(seq: int) -> str:
    return f"{seq:06d}.json.gz"


def is_segment(path: Path) -> bool:
    return (path.parent.name.endswith(JOURNAL_SUFFIX)
            and _SEGMENT_RE.match(path.name) is not None)


def list_segments(directory: Path) -> List[Tuple[int, Path]]:
    """The journal's segments as ``(seq, path)``, oldest first. Listed
    through the active filesystem, so delayed-visibility faults can
    hide the newest one."""
    try:
        names = with_fs_retries(lambda: active_fs().listdir(directory),
                                label="checkpoint:listdir")
    except (FileNotFoundError, NotADirectoryError):
        return []
    segments = []
    for name in names:
        match = _SEGMENT_RE.match(name)
        if match is not None:
            segments.append((int(match.group(1)), directory / name))
    return sorted(segments)


@dataclass
class Replay:
    """One journal, read back."""

    #: the verified, chained prefix: ``(path, payload, sha256)``.
    segments: List[Tuple[Path, Dict[str, Any], str]] = field(
        default_factory=list)
    #: every listed segment after it, each with its damage class.
    dropped: List[IntegrityError] = field(default_factory=list)

    @property
    def tail(self) -> Tuple[int, Optional[str]]:
        """``(seq, prev)`` of the next segment to append."""
        if not self.segments:
            return 0, None
        return len(self.segments), self.segments[-1][2]

    @property
    def payload(self) -> Optional[Dict[str, Any]]:
        """The prefix merged into one checkpoint, or None without a
        valid genesis."""
        if not self.segments:
            return None
        return merge([payload for _path, payload, _digest
                      in self.segments])


def replay(directory: Path, read: SegmentReader) -> Replay:
    """Verify a journal as a chain; never mutates it."""
    result = Replay()
    broken = False
    for seq, path in list_segments(directory):
        if not broken:
            cause = _append(result.segments, seq, path, read)
            if cause is None:
                continue
            broken = True
        else:
            cause = "follows a dropped segment"
        error = IntegrityError(f"journal segment {seq:06d}: {cause}",
                               path)
        error.damage_class = (
            DAMAGE_TORN_SEGMENT if result.segments or seq == 0
            else DAMAGE_ORPHAN_SEGMENT)
        result.dropped.append(error)
    return result


def _append(chain: List[Tuple[Path, Dict[str, Any], str]], seq: int,
            path: Path, read: SegmentReader) -> Optional[str]:
    """Add one segment to *chain*; the reason it does not belong there
    otherwise."""
    if seq != len(chain):
        return f"segment {len(chain):06d} is missing"
    try:
        payload, digest = read(path)
    except FileNotFoundError:
        return "not readable"
    except IntegrityError as error:
        return f"{error.damage_class}: {error}"
    prev = chain[-1][2] if chain else None
    genesis = chain[0][1] if chain else payload
    if payload.get("seq") != seq:
        return f"records seq {payload.get('seq')!r}"
    if payload.get("prev") != prev:
        return "prev does not match the previous segment's digest"
    for key in HEADER_KEYS:
        if payload.get(key) != genesis.get(key):
            return f"{key} differs from the genesis segment's"
    if not isinstance(payload.get("peers"), dict) \
            or not isinstance(payload.get("failures", []), list):
        return "peers or failures have the wrong shape"
    chain.append((path, payload, digest))
    return None


def merge(payloads: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """One checkpoint dict from a chain of segment payloads: the header
    of the first, every segment's peers and failures in order, and the
    newest value of any other member (``metrics``)."""
    merged: Dict[str, Any] = {}
    for payload in payloads:
        for key, value in payload.items():
            if key == "peers":
                merged.setdefault("peers", {}).update(value)
            elif key == "failures":
                merged.setdefault("failures", []).extend(value)
            elif key not in CHAIN_KEYS:
                merged[key] = value
    return merged
