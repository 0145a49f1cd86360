"""IXP community dictionaries.

The paper builds, for each IXP, a dictionary mapping BGP community values
to their semantics, as the union of two sources (§3):

1. the route-server configuration file fetched via the LG API, and
2. the community documentation published on the IXP website.

This module models that dictionary. It supports two complementary entry
forms:

* :class:`CommunityEntry` — a concrete community value with full
  semantics (this is what the paper's 3,183-entry dictionary contains);
* :class:`CommunityRule` — a *parameterised* pattern such as
  DE-CIX's ``0:<peer-as>`` ("do not announce to <peer-as>"), which maps a
  whole family of concrete values to semantics and extracts the encoded
  target from the value field.

Lookup order is exact entry first, then rules. Anything that matches
neither is an **unknown** community (the 7.5–19.8% in Fig. 1). Rules are
declarative (no callables) so the whole dictionary round-trips through the
Looking Glass ``/config`` JSON endpoint.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..bgp.communities import Community, StandardCommunity, parse_community
from .taxonomy import ActionCategory, CommunityRole, Target, TargetKind

#: Where a dictionary entry came from; the union of both is what the
#: paper uses after discovering that RS configs are incomplete.
SOURCE_RS_CONFIG = "rs-config"
SOURCE_WEBSITE = "website"
SOURCE_BOTH = "both"

_MAX_PEER_AS = 0xFFFF


@dataclass(frozen=True)
class Semantics:
    """The meaning of one community value."""

    role: CommunityRole
    category: Optional[ActionCategory] = None
    target: Optional[Target] = None
    description: str = ""
    prepend_count: int = 0

    def __post_init__(self) -> None:
        if self.role is CommunityRole.ACTION and self.category is None:
            raise ValueError("action semantics require a category")
        if self.role is CommunityRole.INFORMATIONAL and self.category:
            raise ValueError("informational semantics cannot have a category")

    @property
    def is_action(self) -> bool:
        return self.role is CommunityRole.ACTION


@dataclass(frozen=True)
class CommunityEntry:
    """A concrete community value with known semantics."""

    community: Community
    semantics: Semantics
    source: str = SOURCE_BOTH


@dataclass(frozen=True)
class CommunityRule:
    """A parameterised community family, declaratively described.

    Matches standard communities with ``asn == asn_field`` and
    ``value_low <= value <= value_high``; on a match the semantics embed
    ``Target.peer(value)`` (the value field *is* the target ASN — the
    encoding every studied IXP uses for per-peer actions).
    """

    asn_field: int
    category: ActionCategory
    description: str = ""
    value_low: int = 1
    value_high: int = _MAX_PEER_AS
    prepend_count: int = 0
    source: str = SOURCE_BOTH

    def match(self, community: Community) -> Optional[Semantics]:
        if not isinstance(community, StandardCommunity):
            return None
        if community.asn != self.asn_field:
            return None
        if not self.value_low <= community.value <= self.value_high:
            return None
        return Semantics(
            role=CommunityRole.ACTION,
            category=self.category,
            target=Target.peer(community.value),
            description=self.description or (
                f"{self.category.value} AS{community.value}"),
            prepend_count=self.prepend_count,
        )

    def dedupe_key(self) -> Tuple[object, ...]:
        return ("standard", self.asn_field, self.category.value,
                self.value_low, self.value_high)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule_type": "standard",
            "asn_field": self.asn_field,
            "category": self.category.value,
            "description": self.description,
            "value_low": self.value_low,
            "value_high": self.value_high,
            "prepend_count": self.prepend_count,
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CommunityRule":
        return cls(
            asn_field=int(payload["asn_field"]),           # type: ignore[arg-type]
            category=ActionCategory(payload["category"]),
            description=str(payload.get("description", "")),
            value_low=int(payload.get("value_low", 1)),    # type: ignore[arg-type]
            value_high=int(payload.get("value_high", _MAX_PEER_AS)),  # type: ignore[arg-type]
            prepend_count=int(payload.get("prepend_count", 0)),  # type: ignore[arg-type]
            source=str(payload.get("source", SOURCE_BOTH)),
        )


@dataclass(frozen=True)
class LargeCommunityRule:
    """A parameterised *large*-community family (RFC 8092 mirrors).

    IXPs with 32-bit route-server ASNs (or members targeting 32-bit
    ASNs) need large communities: ``<global>:<function>:<target>``. A
    rule matches large communities with the given global administrator
    and function value; the third field is the target ASN.
    """

    global_admin: int
    function: int
    category: ActionCategory
    description: str = ""
    prepend_count: int = 0
    source: str = SOURCE_BOTH

    def match(self, community: Community) -> Optional[Semantics]:
        from ..bgp.communities import LargeCommunity
        if not isinstance(community, LargeCommunity):
            return None
        if community.global_admin != self.global_admin:
            return None
        if community.local_data1 != self.function:
            return None
        target_asn = community.local_data2
        if target_asn == 0:
            target: Target = Target.all_peers()
        else:
            target = Target.peer(target_asn)
        return Semantics(
            role=CommunityRole.ACTION,
            category=self.category,
            target=target,
            description=self.description or (
                f"{self.category.value} {target}"),
            prepend_count=self.prepend_count,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule_type": "large",
            "global_admin": self.global_admin,
            "function": self.function,
            "category": self.category.value,
            "description": self.description,
            "prepend_count": self.prepend_count,
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "LargeCommunityRule":
        return cls(
            global_admin=int(payload["global_admin"]),  # type: ignore[arg-type]
            function=int(payload["function"]),          # type: ignore[arg-type]
            category=ActionCategory(payload["category"]),
            description=str(payload.get("description", "")),
            prepend_count=int(payload.get("prepend_count", 0)),  # type: ignore[arg-type]
            source=str(payload.get("source", SOURCE_BOTH)),
        )

    def dedupe_key(self) -> Tuple[object, ...]:
        return ("large", self.global_admin, self.function,
                self.category.value)


@dataclass(frozen=True)
class ExtendedCommunityRule:
    """A parameterised *extended*-community family (RFC 4360 mirrors).

    Matches two-octet-AS-specific extended communities whose global
    administrator is the route server ASN and whose subtype encodes the
    action; the local administrator is the target ASN.
    """

    global_admin: int
    type_high: int
    type_low: int
    category: ActionCategory
    description: str = ""
    prepend_count: int = 0
    source: str = SOURCE_BOTH

    def match(self, community: Community) -> Optional[Semantics]:
        from ..bgp.communities import ExtendedCommunity
        if not isinstance(community, ExtendedCommunity):
            return None
        if (community.type_high, community.type_low) != (
                self.type_high, self.type_low):
            return None
        if community.global_admin != self.global_admin:
            return None
        target_asn = community.local_admin
        target = (Target.all_peers() if target_asn == 0
                  else Target.peer(target_asn))
        return Semantics(
            role=CommunityRole.ACTION,
            category=self.category,
            target=target,
            description=self.description or (
                f"{self.category.value} {target}"),
            prepend_count=self.prepend_count,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule_type": "extended",
            "global_admin": self.global_admin,
            "type_high": self.type_high,
            "type_low": self.type_low,
            "category": self.category.value,
            "description": self.description,
            "prepend_count": self.prepend_count,
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ExtendedCommunityRule":
        return cls(
            global_admin=int(payload["global_admin"]),  # type: ignore[arg-type]
            type_high=int(payload["type_high"]),        # type: ignore[arg-type]
            type_low=int(payload["type_low"]),          # type: ignore[arg-type]
            category=ActionCategory(payload["category"]),
            description=str(payload.get("description", "")),
            prepend_count=int(payload.get("prepend_count", 0)),  # type: ignore[arg-type]
            source=str(payload.get("source", SOURCE_BOTH)),
        )

    def dedupe_key(self) -> Tuple[object, ...]:
        return ("extended", self.global_admin, self.type_high,
                self.type_low, self.category.value)


AnyRule = object  # CommunityRule | LargeCommunityRule | ExtendedCommunityRule


def rule_from_dict(payload: Dict[str, object]) -> object:
    """Deserialise any rule flavour (dispatch on ``rule_type``)."""
    rule_type = payload.get("rule_type", "standard")
    if rule_type == "large":
        return LargeCommunityRule.from_dict(payload)
    if rule_type == "extended":
        return ExtendedCommunityRule.from_dict(payload)
    return CommunityRule.from_dict(payload)


def _target_from_string(text: str) -> Target:
    if text == TargetKind.ALL_PEERS.value:
        return Target.all_peers()
    if text == TargetKind.NONE.value:
        return Target.none()
    if text.startswith("region:"):
        return Target.for_region(text.split(":", 1)[1])
    if text.startswith("AS"):
        return Target.peer(int(text[2:]))
    raise ValueError(f"cannot parse target {text!r}")


class CommunityDictionary:
    """A per-IXP dictionary of community semantics.

    ``len()`` counts only concrete entries, mirroring how the paper
    reports dictionary sizes (e.g. 774 for DE-CIX). Rules extend coverage
    to parameterised families without inflating the count.
    """

    def __init__(self, ixp_name: str,
                 entries: Iterable[CommunityEntry] = (),
                 rules: Iterable[CommunityRule] = ()) -> None:
        self.ixp_name = ixp_name
        self._entries: Dict[Community, CommunityEntry] = {}
        self._rules: List[CommunityRule] = list(rules)
        self._digest: Optional[str] = None
        for entry in entries:
            self.add_entry(entry)

    # -- construction -------------------------------------------------

    def add_entry(self, entry: CommunityEntry) -> None:
        """Insert or merge a concrete entry.

        When the same community arrives from both sources, the stored
        entry's source is upgraded to ``both`` — this is the §3 union.
        """
        self._digest = None
        existing = self._entries.get(entry.community)
        if existing is None:
            self._entries[entry.community] = entry
            return
        if existing.source != entry.source:
            self._entries[entry.community] = replace(
                existing, source=SOURCE_BOTH)

    def add_rule(self, rule: CommunityRule) -> None:
        self._digest = None
        self._rules.append(rule)

    def digest(self) -> str:
        """SHA-256 over the canonical :meth:`to_dict` JSON (cached;
        invalidated by mutation): a content address that does not
        depend on how (or whether) the dictionary was stored, so the
        aggregate cache can key on dictionary content."""
        if self._digest is None:
            blob = json.dumps(self.to_dict(), separators=(",", ":"),
                              sort_keys=True).encode("utf-8")
            self._digest = hashlib.sha256(blob).hexdigest()
        return self._digest

    @classmethod
    def union(cls, ixp_name: str,
              *dictionaries: "CommunityDictionary") -> "CommunityDictionary":
        """The union dictionary the paper builds from RS config + website."""
        merged = cls(ixp_name)
        seen_rules: Set[Tuple[object, ...]] = set()
        for dictionary in dictionaries:
            for entry in dictionary.entries():
                merged.add_entry(entry)
            for rule in dictionary.rules():
                key = rule.dedupe_key()
                if key not in seen_rules:
                    seen_rules.add(key)
                    merged.add_rule(rule)
        return merged

    # -- lookup -------------------------------------------------------

    def lookup(self, community: Community) -> Optional[Semantics]:
        """Return semantics for *community*, or None when unknown."""
        entry = self._entries.get(community)
        if entry is not None:
            return entry.semantics
        for rule in self._rules:
            semantics = rule.match(community)
            if semantics is not None:
                return semantics
        return None

    def is_ixp_defined(self, community: Community) -> bool:
        return self.lookup(community) is not None

    def __contains__(self, community: Community) -> bool:
        return self.is_ixp_defined(community)

    def __len__(self) -> int:
        return len(self._entries)

    # -- iteration / views ---------------------------------------------

    def entries(self) -> Iterator[CommunityEntry]:
        return iter(self._entries.values())

    def rules(self) -> Tuple[CommunityRule, ...]:
        return tuple(self._rules)

    def action_entries(self) -> Iterator[CommunityEntry]:
        return (e for e in self.entries() if e.semantics.is_action)

    def informational_entries(self) -> Iterator[CommunityEntry]:
        return (e for e in self.entries() if not e.semantics.is_action)

    def communities_by_category(
            self, category: ActionCategory) -> Set[Community]:
        return {e.community for e in self.entries()
                if e.semantics.category is category}

    def restricted_to_source(self, source: str) -> "CommunityDictionary":
        """A view keeping only entries/rules from one source.

        Used by the dictionary-union ablation: classifying with the
        RS-config-only dictionary shows how much the website documentation
        contributes (the paper found RS configs incomplete).
        """
        keep = (source, SOURCE_BOTH)
        return CommunityDictionary(
            self.ixp_name,
            entries=(e for e in self.entries() if e.source in keep),
            rules=(r for r in self._rules if r.source in keep),
        )

    # -- serialisation --------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON form served by the LG ``/config`` endpoint."""
        def one(entry: CommunityEntry) -> Dict[str, object]:
            semantics = entry.semantics
            record: Dict[str, object] = {
                "community": str(entry.community),
                "kind": entry.community.kind,
                "role": semantics.role.value,
                "description": semantics.description,
                "source": entry.source,
            }
            if semantics.category:
                record["category"] = semantics.category.value
            if semantics.target is not None:
                record["target"] = str(semantics.target)
            if semantics.prepend_count:
                record["prepend_count"] = semantics.prepend_count
            return record

        return {
            "ixp": self.ixp_name,
            "entries": [one(e) for e in sorted(
                self.entries(), key=lambda e: str(e.community))],
            "rules": [r.to_dict() for r in self._rules],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CommunityDictionary":
        """Inverse of :meth:`to_dict`; how the scraper rebuilds the
        dictionary from the LG ``/config`` response."""
        dictionary = cls(str(payload["ixp"]))
        for record in payload.get("entries", ()):   # type: ignore[union-attr]
            role = CommunityRole(record["role"])
            category = (ActionCategory(record["category"])
                        if "category" in record else None)
            target = (_target_from_string(str(record["target"]))
                      if "target" in record else None)
            semantics = Semantics(
                role=role, category=category, target=target,
                description=str(record.get("description", "")),
                prepend_count=int(record.get("prepend_count", 0)))
            dictionary.add_entry(CommunityEntry(
                community=parse_community(str(record["community"])),
                semantics=semantics,
                source=str(record.get("source", SOURCE_BOTH))))
        for record in payload.get("rules", ()):     # type: ignore[union-attr]
            dictionary.add_rule(rule_from_dict(record))
        return dictionary
