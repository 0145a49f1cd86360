"""The route model shared by the route server, looking glass, and analysis.

A :class:`Route` is a single (prefix, attributes) entry as seen at one
vantage point — here, an IXP route server RIB. It mirrors exactly what the
paper's snapshots capture for every route (§3): prefix, next-hop, AS-path,
and the three lists of BGP communities.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from ipaddress import IPv6Address
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

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
        is parsed once, or at most once per series when the memo is a
        :meth:`RouteDecodeMemo.successor`; without one, this route gets
        a memo of its own. Either way the route equals the one the
        constructor builds.
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


#: the fallback of a memo that has none. Only ever read; a plain dict,
#: because a ``MappingProxyType``'s ``get`` costs a method lookup on
#: every miss.
_NO_OLDER: Mapping[Any, Any] = {}


class _Generation(dict):
    """One generation of a memo table: raw value -> parsed value.

    A missing key is looked up in the previous generation (``older``)
    before it is parsed, and kept either way, so a generation holds
    every value its payload used: what was parsed for it and what was
    carried over. ``parse`` raising stores nothing.
    """

    __slots__ = ("parse", "older")

    def __init__(self, parse: Callable[[Any], Any],
                 older: Mapping[Any, Any]) -> None:
        super().__init__()
        self.parse = parse
        self.older = older

    def __missing__(self, key: Any) -> Any:
        value = self.older.get(key)
        if value is None:
            value = self.parse(key)
        self[key] = value
        return value


#: the position of each community class's set on a :class:`Route`
_FLAVOURS = {StandardCommunity: 0, ExtendedCommunity: 1, LargeCommunity: 2}


def _format_v6(packed: int) -> str:
    """The prefix string of ``address << 8 | prefixlen``."""
    return f"{IPv6Address(packed >> 8)}/{packed & 0xFF}"


class RouteDecodeMemo:
    """Parse results shared by the routes of a series of payloads.

    The routes of one payload, and consecutive payloads of one series
    (a store's snapshots of one IXP and family), repeat most of their
    prefixes, AS paths and community lists. The memo maps each
    distinct raw value to its parsed form: a prefix string to its
    canonical form, an AS-path string to one :class:`AsPath`, a
    community string to one community, a community list to one shared
    ``frozenset``; and, for the columnar codec, a tuple of community
    strings to the route's three flavour sets and a packed IPv6
    address and length to its prefix string.

    One memo decodes one payload. :meth:`successor` makes the memo for
    the next payload of the same series: it falls back to this one and
    keeps what it finds there, and this one forgets its own fallback.
    So at most the distinct values of the last two payloads are
    retained, however many are read. A :class:`DatasetStore` keeps
    one memo per (IXP, family); a caller without a series creates one
    per payload and drops it with the payload.

    Only successful parses are stored and only ``str`` values are keys
    of the JSON tables: malformed input reaches the parser every time
    and raises what it always raises. Every set is built in the order
    of its key, so a recalled ``frozenset`` iterates exactly as a
    freshly built one. Two threads decoding with one memo at once may
    lose a generation: that costs parses, never a wrong value.
    """

    __slots__ = ("prefixes", "paths", "communities", "sets", "rows",
                 "v6_prefixes")

    def __init__(self, previous: Optional["RouteDecodeMemo"] = None,
                 ) -> None:
        def older(name: str) -> Mapping[Any, Any]:
            return _NO_OLDER if previous is None \
                else getattr(previous, name)

        self.prefixes = _Generation(canonical, older("prefixes"))
        self.paths = _Generation(AsPath.from_string, older("paths"))
        self.communities = _Generation(parse_community,
                                       older("communities"))
        self.sets = _Generation(_set_parser(self.communities),
                                older("sets"))
        self.rows = _Generation(_row_parser(self.communities),
                                older("rows"))
        self.v6_prefixes = _Generation(_format_v6, older("v6_prefixes"))

    def successor(self) -> "RouteDecodeMemo":
        """The memo for the next payload of this one's series.

        It falls back to this memo, which from now on has no fallback
        of its own: the generation before this one is released.
        """
        for name in self.__slots__:
            getattr(self, name).older = _NO_OLDER
        return RouteDecodeMemo(self)

    def prefix(self, raw: Any) -> str:
        if type(raw) is not str:
            return canonical(raw)
        return self.prefixes[raw]

    def as_path(self, raw: Any) -> AsPath:
        if type(raw) is not str:
            return AsPath.from_string(raw)
        return self.paths[raw]

    def community_set(self, raw: Any) -> FrozenSet[Community]:
        try:
            return self.sets[tuple(raw)]
        except TypeError:
            # not iterable, or an unhashable member: parse as the
            # constructor would, which raises the same error it always did
            return frozenset(parse_community(c) for c in raw)


def _set_parser(communities: Dict[str, Community],
                ) -> Callable[[Tuple[Any, ...]], FrozenSet[Community]]:
    """Builds the set of a community list; the members come from
    *communities* (strings only), in the list's order."""
    def parse(key: Tuple[Any, ...]) -> FrozenSet[Community]:
        return frozenset([communities[c] if type(c) is str
                          else parse_community(c) for c in key])
    return parse


def _row_parser(communities: Dict[str, Community],
                ) -> Callable[[Tuple[str, ...]], Tuple[FrozenSet, ...]]:
    """Splits a tuple of community strings into a route's standard,
    extended and large sets, each in the tuple's order."""
    def parse(key: Tuple[str, ...]) -> Tuple[FrozenSet, ...]:
        members = list(map(communities.__getitem__, key))
        kinds = set(map(type, members))
        sets: List[FrozenSet[Community]] = [frozenset()] * 3
        if len(kinds) == 1:
            sets[_FLAVOURS[kinds.pop()]] = frozenset(members)
        else:
            for kind in kinds:
                sets[_FLAVOURS[kind]] = frozenset(
                    [c for c in members if type(c) is kind])
        return tuple(sets)
    return parse
