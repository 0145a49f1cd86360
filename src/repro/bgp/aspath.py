"""AS_PATH attribute modelling.

An AS path is an ordered sequence of segments; in practice at IXP route
servers nearly everything is a single AS_SEQUENCE, but AS_SET segments
still appear on aggregates, so both are modelled. The route server filters
use :meth:`AsPath.length` (prepends counted) and
:meth:`AsPath.origin_asn`, and the policy engine uses
:meth:`AsPath.prepended` to implement prepend-to action communities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Sequence, Tuple

from .asn import parse_asn
from .errors import MalformedAsPathError

AS_SEQUENCE = 2
AS_SET = 1

_SEGMENT_NAMES = {AS_SEQUENCE: "sequence", AS_SET: "set"}


@dataclass(frozen=True)
class AsPathSegment:
    """One AS_PATH segment: a type (AS_SEQUENCE/AS_SET) and ASN tuple."""

    segment_type: int
    asns: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.segment_type not in _SEGMENT_NAMES:
            raise MalformedAsPathError(
                f"unknown segment type {self.segment_type}")
        if not self.asns:
            raise MalformedAsPathError("empty AS_PATH segment")
        object.__setattr__(
            self, "asns", tuple(parse_asn(a) for a in self.asns))

    @property
    def length(self) -> int:
        """RFC 4271 path-length contribution: a SET counts as 1."""
        return len(self.asns) if self.segment_type == AS_SEQUENCE else 1

    def __str__(self) -> str:
        body = " ".join(str(a) for a in self.asns)
        if self.segment_type == AS_SET:
            return "{" + body.replace(" ", ",") + "}"
        return body


@dataclass(frozen=True)
class AsPath:
    """An immutable AS_PATH composed of one or more segments."""

    segments: Tuple[AsPathSegment, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))

    @classmethod
    def from_asns(cls, asns: Sequence[int]) -> "AsPath":
        """Build a single-AS_SEQUENCE path from a list of ASNs.

        >>> AsPath.from_asns([64500, 64501]).origin_asn
        64501
        """
        if not asns:
            raise MalformedAsPathError("AS path needs at least one ASN")
        return cls((AsPathSegment(AS_SEQUENCE, tuple(asns)),))

    @classmethod
    def from_string(cls, text: str) -> "AsPath":
        """Parse ``"64500 64501 {64502,64503}"`` (LG rendering)."""
        if not isinstance(text, str):
            raise MalformedAsPathError(
                f"AS path must be a string, got {text!r}")
        segments: List[AsPathSegment] = []
        run: List[int] = []
        in_set = False
        for token in text.replace("{", " { ").replace("}", " } ").split():
            if token == "{":
                if in_set:
                    raise MalformedAsPathError(f"nested AS set in {text!r}")
                if run:
                    segments.append(AsPathSegment(AS_SEQUENCE, tuple(run)))
                    run = []
                in_set = True
            elif token == "}":
                if not in_set or not run:
                    raise MalformedAsPathError(f"bad AS set in {text!r}")
                segments.append(AsPathSegment(AS_SET, tuple(run)))
                run = []
                in_set = False
            else:
                for part in token.split(","):
                    if part:
                        run.append(parse_asn(part))
        if in_set:
            raise MalformedAsPathError(f"unterminated AS set in {text!r}")
        if run:
            segments.append(AsPathSegment(AS_SEQUENCE, tuple(run)))
        if not segments:
            raise MalformedAsPathError(f"empty AS path: {text!r}")
        return cls(tuple(segments))

    def asns(self) -> Iterator[int]:
        """Iterate every ASN in order (including prepend repeats)."""
        for segment in self.segments:
            for asn in segment.asns:
                yield asn

    @property
    def length(self) -> int:
        """RFC 4271 AS_PATH length (used by the too-long-path filter)."""
        return sum(segment.length for segment in self.segments)

    @property
    def first_asn(self) -> int:
        """The neighbour ASN (leftmost)."""
        return next(self.asns())

    @property
    def origin_asn(self) -> int:
        """The originating ASN (rightmost)."""
        last = None
        for asn in self.asns():
            last = asn
        assert last is not None  # segments are non-empty by construction
        return last

    def unique_asns(self) -> Tuple[int, ...]:
        """Distinct ASNs in first-seen order."""
        seen = dict.fromkeys(self.asns())
        return tuple(seen)

    def has_loop(self) -> bool:
        """True when a non-adjacent repeat exists (prepends are adjacent
        repeats and do not count)."""
        collapsed = [key for key, _ in itertools.groupby(self.asns())]
        return len(collapsed) != len(set(collapsed))

    def prepended(self, asn: int, count: int) -> "AsPath":
        """Return a new path with *asn* prepended *count* times.

        This is how the route server applies prepend-to communities
        before exporting to the targeted peer.
        """
        if count <= 0:
            return self
        head = AsPathSegment(AS_SEQUENCE, (parse_asn(asn),) * count)
        if self.segments and self.segments[0].segment_type == AS_SEQUENCE:
            merged = AsPathSegment(
                AS_SEQUENCE, head.asns + self.segments[0].asns)
            return AsPath((merged,) + self.segments[1:])
        return AsPath((head,) + self.segments)

    def __str__(self) -> str:
        return " ".join(str(segment) for segment in self.segments)

    def __len__(self) -> int:
        return self.length
