"""The route model shared by the route server, looking glass, and analysis.

A :class:`Route` is a single (prefix, attributes) entry as seen at one
vantage point — here, an IXP route server RIB. It mirrors exactly what the
paper's snapshots capture for every route (§3): prefix, next-hop, AS-path,
and the three lists of BGP communities.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, FrozenSet, Iterable, Optional, Tuple

from .aspath import AsPath
from .communities import (
    Community,
    ExtendedCommunity,
    LargeCommunity,
    StandardCommunity,
    parse_community,
)
from .prefix import address_family, canonical


@dataclass(frozen=True)
class Route:
    """An accepted (or filtered) route at a route server.

    Attributes:
        prefix: canonical CIDR string, e.g. ``"203.0.113.0/24"``.
        next_hop: IP address of the announcing peer's router.
        as_path: the AS_PATH as received (origin rightmost).
        peer_asn: ASN of the RS peer that announced the route (equals
            ``as_path.first_asn`` unless the peer inserted prepends of a
            different ASN, which the RS would reject anyway).
        communities: standard communities attached by the announcing AS
            and/or the route server.
        extended_communities / large_communities: the other flavours.
        filtered: True when the RS rejected the route at import; the
            analysis only consumes accepted routes, but the collector
            records both so the accepted/filtered split can be studied.
        filter_reason: the import filter that rejected the route.
    """

    prefix: str
    next_hop: str
    as_path: AsPath
    peer_asn: int
    communities: FrozenSet[StandardCommunity] = field(default_factory=frozenset)
    extended_communities: FrozenSet[ExtendedCommunity] = field(default_factory=frozenset)
    large_communities: FrozenSet[LargeCommunity] = field(default_factory=frozenset)
    filtered: bool = False
    filter_reason: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefix", canonical(self.prefix))
        object.__setattr__(self, "communities", frozenset(self.communities))
        object.__setattr__(self, "extended_communities",
                           frozenset(self.extended_communities))
        object.__setattr__(self, "large_communities",
                           frozenset(self.large_communities))

    @property
    def family(self) -> int:
        """4 or 6."""
        return address_family(self.prefix)

    @property
    def origin_asn(self) -> int:
        return self.as_path.origin_asn

    def all_communities(self) -> Tuple[Community, ...]:
        """Every community on the route, standard first, deterministic order."""
        return (tuple(sorted(self.communities))
                + tuple(sorted(self.extended_communities))
                + tuple(sorted(self.large_communities)))

    @property
    def community_count(self) -> int:
        """Total community instances on this route (all flavours)."""
        return (len(self.communities) + len(self.extended_communities)
                + len(self.large_communities))

    def with_communities(self,
                         communities: Iterable[StandardCommunity]) -> "Route":
        """Return a copy with the standard community set replaced."""
        return replace(self, communities=frozenset(communities))

    def without_communities(
            self, drop: Iterable[StandardCommunity]) -> "Route":
        """Return a copy with the given standard communities removed
        (how a route server scrubs action communities before export)."""
        return replace(self, communities=self.communities - frozenset(drop))

    def with_prepend(self, asn: int, count: int) -> "Route":
        """Return a copy with the AS path prepended (prepend-to action)."""
        return replace(self, as_path=self.as_path.prepended(asn, count))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict, the schema served by the Looking Glass API."""
        payload: Dict[str, Any] = {
            "prefix": self.prefix,
            "next_hop": self.next_hop,
            "as_path": str(self.as_path),
            "peer_asn": self.peer_asn,
            "communities": sorted(str(c) for c in self.communities),
            "extended_communities": sorted(
                str(c) for c in self.extended_communities),
            "large_communities": sorted(
                str(c) for c in self.large_communities),
        }
        if self.filtered:
            payload["filtered"] = True
            payload["filter_reason"] = self.filter_reason
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any],
                  memo: Optional["RouteDecodeMemo"] = None) -> "Route":
        """Inverse of :meth:`to_dict`.

        Pass one *memo* for every route of one payload (a snapshot, an
        LG page) so each distinct prefix, AS-path and community string
        is parsed once; without one, this route gets a memo of its own.
        Either way the route equals the one the constructor builds.
        """
        if memo is None:
            memo = RouteDecodeMemo()
        # the constructor's order: with several bad fields, the same
        # error wins (the prefix is canonicalised last, in __post_init__)
        prefix = payload["prefix"]
        next_hop = payload["next_hop"]
        as_path = memo.as_path(payload["as_path"])
        peer_asn = int(payload["peer_asn"])
        communities = memo.community_set(payload.get("communities", ()))
        extended = memo.community_set(
            payload.get("extended_communities", ()))
        large = memo.community_set(payload.get("large_communities", ()))
        filtered = bool(payload.get("filtered", False))
        filter_reason = payload.get("filter_reason")
        route = object.__new__(cls)
        # every value is canonical and frozen: __post_init__ would
        # only repeat the work the memo saved.
        route.__dict__.update(
            prefix=memo.prefix(prefix), next_hop=next_hop,
            as_path=as_path, peer_asn=peer_asn, communities=communities,
            extended_communities=extended, large_communities=large,
            filtered=filtered, filter_reason=filter_reason)
        return route


class RouteDecodeMemo:
    """Parse results shared by the routes of one JSON payload.

    Within a snapshot or an LG page the same prefixes, AS paths and
    community lists repeat on many routes. The memo maps each distinct
    raw value to its parsed form: a prefix string to its canonical
    form, an AS-path string to one :class:`AsPath`, a community string
    to one community, and a community list to one shared ``frozenset``.

    A caller creates one per payload and drops it with the payload, so
    its size is bounded by what is being decoded. Only successful
    parses are stored and only ``str`` values are keys: malformed input
    reaches the parser every time and raises what it always raises.
    """

    __slots__ = ("prefixes", "paths", "communities", "sets")

    def __init__(self) -> None:
        self.prefixes: Dict[str, str] = {}
        self.paths: Dict[str, AsPath] = {}
        self.communities: Dict[str, Community] = {}
        self.sets: Dict[Tuple[str, ...], FrozenSet[Community]] = {}

    def prefix(self, raw: Any) -> str:
        if type(raw) is not str:
            return canonical(raw)
        value = self.prefixes.get(raw)
        if value is None:
            value = self.prefixes[raw] = canonical(raw)
        return value

    def as_path(self, raw: Any) -> AsPath:
        if type(raw) is not str:
            return AsPath.from_string(raw)
        value = self.paths.get(raw)
        if value is None:
            value = self.paths[raw] = AsPath.from_string(raw)
        return value

    def community(self, raw: Any) -> Community:
        if type(raw) is not str:
            return parse_community(raw)
        value = self.communities.get(raw)
        if value is None:
            value = self.communities[raw] = parse_community(raw)
        return value

    def community_set(self, raw: Any) -> FrozenSet[Community]:
        try:
            key = tuple(raw)
            value = self.sets.get(key)
        except TypeError:
            # not iterable, or an unhashable member: parse as the
            # constructor would, which raises the same error it always did
            return frozenset(parse_community(c) for c in raw)
        if value is None:
            known, community = self.communities.get, self.community
            value = frozenset([known(c) or community(c) for c in key])
            self.sets[key] = value
        return value
