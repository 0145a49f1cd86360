"""Snapshot model: one (IXP, family, day) capture of route-server state.

Mirrors the paper's §3 data unit: "Each snapshot consists of a list of
member ASes in the RS and a list of routes", where every route carries
prefix, next-hop, AS-path and the three community lists. Snapshots are
JSON-serialisable for the on-disk dataset store.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from ..bgp.route import Route, RouteDecodeMemo
from ..ixp.member import Member

#: top-level keys an on-disk snapshot payload must carry; the store's
#: schema-drift detection (see :mod:`repro.collector.integrity`)
#: rejects payloads missing any of them before deserialisation.
REQUIRED_PAYLOAD_KEYS = ("ixp", "family", "captured_on", "members",
                         "routes")


@dataclass
class Snapshot:
    """A daily capture of one IXP route server."""

    ixp: str                       # profile key, e.g. "decix-fra"
    family: int                    # 4 or 6
    captured_on: str               # ISO date
    members: List[Member] = field(default_factory=list)
    routes: List[Route] = field(default_factory=list)
    filtered_count: int = 0
    #: free-form provenance: generator seed, degradation flags, etc.
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in (4, 6):
            raise ValueError(f"family must be 4 or 6, got {self.family}")
        # Normalise the date early so stores sort correctly: keep the
        # *parsed* canonical form, not the raw input — date.fromisoformat
        # accepts variants ("20211004", "2021-W40-1") whose raw strings
        # would not sort chronologically against "2021-10-04" names.
        self.captured_on = \
            _dt.date.fromisoformat(str(self.captured_on)).isoformat()

    # -- summary counters (the columns of Tables 3/4) -----------------
    #
    # Counters describe what the route server *accepted* — the paper's
    # unit of analysis. Routes retained with ``filtered=True`` (import-
    # filter rejects kept for forensics) are excluded everywhere and
    # surface only through :attr:`filtered_route_count`.

    @property
    def member_count(self) -> int:
        return len(self.members)

    def accepted_routes(self) -> List[Route]:
        """The routes that passed import filtering."""
        return [route for route in self.routes if not route.filtered]

    @property
    def route_count(self) -> int:
        return sum(1 for route in self.routes if not route.filtered)

    @property
    def filtered_route_count(self) -> int:
        """Routes rejected by import filters: those retained in
        :attr:`routes` with ``filtered=True`` plus
        :attr:`filtered_count` (rejects the collector observed but did
        not retain). The two sources are disjoint by construction."""
        retained = sum(1 for route in self.routes if route.filtered)
        return retained + self.filtered_count

    @property
    def prefix_count(self) -> int:
        return len({route.prefix for route in self.routes
                    if not route.filtered})

    @property
    def community_count(self) -> int:
        """Total community instances over accepted routes (all
        flavours)."""
        return sum(route.community_count for route in self.routes
                   if not route.filtered)

    def member_asns(self) -> List[int]:
        return sorted(member.asn for member in self.members)

    def routes_by_peer(self) -> Dict[int, List[Route]]:
        by_peer: Dict[int, List[Route]] = {}
        for route in self.routes:
            by_peer.setdefault(route.peer_asn, []).append(route)
        return by_peer

    def summary(self) -> Dict[str, int]:
        return {
            "members": self.member_count,
            "prefixes": self.prefix_count,
            "routes": self.route_count,
            "communities": self.community_count,
        }

    # -- serialisation -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ixp": self.ixp,
            "family": self.family,
            "captured_on": self.captured_on,
            "members": [member.to_dict() for member in self.members],
            "routes": [route.to_dict() for route in self.routes],
            "filtered_count": self.filtered_count,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any],
                  memo: Optional[RouteDecodeMemo] = None) -> "Snapshot":
        """Inverse of :meth:`to_dict`. Every route goes through
        :meth:`Route.from_dict` with one *memo*: pass the series' memo
        (see :meth:`RouteDecodeMemo.successor`) to reuse the values an
        earlier payload parsed; without one the payload gets its own.
        """
        if memo is None:
            memo = RouteDecodeMemo()
        return cls(
            ixp=str(payload["ixp"]),
            family=int(payload["family"]),
            captured_on=str(payload["captured_on"]),
            members=[Member.from_dict(m) for m in payload.get("members", ())],
            routes=[Route.from_dict(r, memo)
                    for r in payload.get("routes", ())],
            filtered_count=int(payload.get("filtered_count", 0)),
            meta=dict(payload.get("meta", {})),
        )

    @property
    def key(self) -> str:
        """Unique snapshot identity within a dataset."""
        return f"{self.ixp}/v{self.family}/{self.captured_on}"


def snapshots_sorted(snapshots: Iterable[Snapshot]) -> List[Snapshot]:
    """Chronological order within (ixp, family) groups."""
    return sorted(snapshots,
                  key=lambda s: (s.ixp, s.family, s.captured_on))
