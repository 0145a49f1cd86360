"""Routing Information Bases for the route server.

The route server keeps, per peer, an Adj-RIB-In split into *accepted*
and *filtered* routes — exactly the two sets the LG API exposes and the
paper collects (§3). Export state (Adj-RIB-Out) is computed on demand by
the server from accepted routes + policy; it is not materialised here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from ..bgp.route import Route


@dataclass
class AdjRibIn:
    """Per-peer received routes, keyed by prefix.

    A peer announces at most one route per prefix to the RS (one session),
    so the key is the prefix alone. Re-announcing replaces.
    """

    peer_asn: int
    _accepted: Dict[str, Route] = field(default_factory=dict)
    _filtered: Dict[str, Route] = field(default_factory=dict)

    def insert(self, route: Route) -> None:
        if route.peer_asn != self.peer_asn:
            raise ValueError(
                f"route from AS{route.peer_asn} in AS{self.peer_asn} RIB")
        # A replacement may move between accepted and filtered.
        self._accepted.pop(route.prefix, None)
        self._filtered.pop(route.prefix, None)
        if route.filtered:
            self._filtered[route.prefix] = route
        else:
            self._accepted[route.prefix] = route

    def accepted(self) -> List[Route]:
        return list(self._accepted.values())

    def filtered(self) -> List[Route]:
        return list(self._filtered.values())

    @property
    def accepted_count(self) -> int:
        return len(self._accepted)

    @property
    def filtered_count(self) -> int:
        return len(self._filtered)


class RibStore:
    """All per-peer Adj-RIB-Ins of one route server."""

    def __init__(self) -> None:
        self._ribs: Dict[int, AdjRibIn] = {}

    def rib_for(self, peer_asn: int) -> AdjRibIn:
        if peer_asn not in self._ribs:
            self._ribs[peer_asn] = AdjRibIn(peer_asn)
        return self._ribs[peer_asn]

    def drop_peer(self, peer_asn: int) -> None:
        self._ribs.pop(peer_asn, None)

    def peers(self) -> List[int]:
        return sorted(self._ribs)

    def all_accepted(self) -> Iterator[Route]:
        for peer_asn in self.peers():
            yield from self._ribs[peer_asn].accepted()

    def all_filtered(self) -> Iterator[Route]:
        for peer_asn in self.peers():
            yield from self._ribs[peer_asn].filtered()

    def totals(self) -> Tuple[int, int]:
        """(accepted, filtered) route counts across all peers."""
        accepted = sum(r.accepted_count for r in self._ribs.values())
        filtered = sum(r.filtered_count for r in self._ribs.values())
        return accepted, filtered

    def unique_accepted_prefixes(self) -> int:
        """Distinct prefixes across all accepted routes (Table 1's
        "# of Observed Prefixes" as opposed to routes)."""
        prefixes = {route.prefix for route in self.all_accepted()}
        return len(prefixes)
