"""BGP community attribute values.

Implements the three community flavours the paper observes on IXP routes
(Fig. 2):

* **standard** communities (RFC 1997) — 32 bits, rendered ``ASN:VALUE``;
* **extended** communities (RFC 4360) — 64 bits, type/subtype + payload;
* **large** communities (RFC 8092) — 96 bits, ``GLOBAL:LOCAL1:LOCAL2``.

Each flavour is an immutable, hashable dataclass with string
(de)serialisation, so community values can be used as dictionary keys in
counting pipelines and round-tripped through the Looking Glass JSON API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from .asn import MAX_ASN16, MAX_ASN32
from .errors import MalformedCommunityError

_U16 = 0xFFFF
_U32 = 0xFFFFFFFF

# Well-known standard community values (RFC 1997 + RFC 7999).
NO_EXPORT = 0xFFFFFF01
NO_ADVERTISE = 0xFFFFFF02
NO_EXPORT_SUBCONFED = 0xFFFFFF03
#: RFC 7999 BLACKHOLE community (65535:666).
BLACKHOLE = 0xFFFF029A

WELL_KNOWN_NAMES = {
    NO_EXPORT: "no-export",
    NO_ADVERTISE: "no-advertise",
    NO_EXPORT_SUBCONFED: "no-export-subconfed",
    BLACKHOLE: "blackhole",
}


@dataclass(frozen=True, order=True)
class StandardCommunity:
    """An RFC 1997 standard community, ``asn:value`` (16 bits each)."""

    asn: int
    value: int

    def __post_init__(self) -> None:
        if not (0 <= self.asn <= _U16 and 0 <= self.value <= _U16):
            raise MalformedCommunityError(
                f"standard community fields out of range: {self.asn}:{self.value}")

    @property
    def kind(self) -> str:
        return "standard"

    @classmethod
    def from_string(cls, text: str) -> "StandardCommunity":
        """Parse ``"64500:123"`` (also accepts surrounding parentheses,
        the BIRD rendering ``(64500,123)``)."""
        cleaned = text.strip().strip("()").replace(",", ":")
        parts = cleaned.split(":")
        if len(parts) != 2:
            raise MalformedCommunityError(f"not a standard community: {text!r}")
        try:
            asn, value = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise MalformedCommunityError(
                f"not a standard community: {text!r}") from exc
        return cls(asn, value)

    @classmethod
    def from_u32(cls, raw: int) -> "StandardCommunity":
        """Build from the packed 32-bit wire value."""
        if not 0 <= raw <= _U32:
            raise MalformedCommunityError(f"u32 out of range: {raw}")
        return cls(raw >> 16, raw & _U16)

    def to_u32(self) -> int:
        """Packed 32-bit wire value."""
        return (self.asn << 16) | self.value

    @property
    def well_known_name(self) -> Union[str, None]:
        """RFC 1997/7999 well-known name, or None."""
        return WELL_KNOWN_NAMES.get(self.to_u32())

    def __str__(self) -> str:
        return f"{self.asn}:{self.value}"


@dataclass(frozen=True, order=True)
class ExtendedCommunity:
    """An RFC 4360 extended community: 8-bit type, 8-bit subtype, 48-bit
    payload (exposed as ``global_admin``/``local_admin`` for the common
    two-octet-AS-specific encoding, type 0x00/0x40)."""

    type_high: int
    type_low: int
    global_admin: int
    local_admin: int

    def __post_init__(self) -> None:
        ok = (0 <= self.type_high <= 0xFF and 0 <= self.type_low <= 0xFF
              and 0 <= self.global_admin <= _U16
              and 0 <= self.local_admin <= _U32)
        if not ok:
            raise MalformedCommunityError(
                f"extended community fields out of range: {self!r}")

    @property
    def kind(self) -> str:
        return "extended"

    @property
    def is_transitive(self) -> bool:
        """Bit 0x40 of the type high octet is the *non*-transitive flag."""
        return not self.type_high & 0x40

    @classmethod
    def route_target(cls, asn: int, value: int) -> "ExtendedCommunity":
        """Convenience constructor for a transitive two-octet-AS RT."""
        return cls(0x00, 0x02, asn, value)

    @classmethod
    def from_string(cls, text: str) -> "ExtendedCommunity":
        """Parse ``"rt:64500:123"`` / ``"ro:64500:123"`` /
        ``"generic:0x00:0x02:64500:123"``."""
        parts = text.strip().lower().split(":")
        try:
            if parts[0] == "rt" and len(parts) == 3:
                return cls.route_target(int(parts[1]), int(parts[2]))
            if parts[0] == "ro" and len(parts) == 3:
                return cls(0x00, 0x03, int(parts[1]), int(parts[2]))
            if parts[0] == "generic" and len(parts) == 5:
                return cls(int(parts[1], 0), int(parts[2], 0),
                           int(parts[3], 0), int(parts[4], 0))
        except (ValueError, MalformedCommunityError) as exc:
            raise MalformedCommunityError(
                f"not an extended community: {text!r}") from exc
        raise MalformedCommunityError(f"not an extended community: {text!r}")

    def __str__(self) -> str:
        if (self.type_high, self.type_low) == (0x00, 0x02):
            return f"rt:{self.global_admin}:{self.local_admin}"
        if (self.type_high, self.type_low) == (0x00, 0x03):
            return f"ro:{self.global_admin}:{self.local_admin}"
        return (f"generic:0x{self.type_high:02x}:0x{self.type_low:02x}:"
                f"{self.global_admin}:{self.local_admin}")


@dataclass(frozen=True, order=True)
class LargeCommunity:
    """An RFC 8092 large community: three 32-bit fields, rendered
    ``GLOBAL:LOCAL1:LOCAL2``. The global field is conventionally the ASN
    of the defining network, which lets 32-bit ASNs define communities."""

    global_admin: int
    local_data1: int
    local_data2: int

    def __post_init__(self) -> None:
        for field in (self.global_admin, self.local_data1, self.local_data2):
            if not 0 <= field <= _U32:
                raise MalformedCommunityError(
                    f"large community field out of range: {field}")

    @property
    def kind(self) -> str:
        return "large"

    @classmethod
    def from_string(cls, text: str) -> "LargeCommunity":
        parts = text.strip().strip("()").replace(",", ":").split(":")
        if len(parts) != 3:
            raise MalformedCommunityError(f"not a large community: {text!r}")
        try:
            a, b, c = (int(p) for p in parts)
        except ValueError as exc:
            raise MalformedCommunityError(
                f"not a large community: {text!r}") from exc
        return cls(a, b, c)

    def __str__(self) -> str:
        return f"{self.global_admin}:{self.local_data1}:{self.local_data2}"


Community = Union[StandardCommunity, ExtendedCommunity, LargeCommunity]


def parse_community(text: str) -> Community:
    """Parse any community flavour from its canonical string form.

    Dispatch is structural: two fields → standard, three numeric fields →
    large, ``rt:``/``ro:``/``generic:`` prefix → extended.

    >>> parse_community("64500:123").kind
    'standard'
    >>> parse_community("64500:1:2").kind
    'large'
    >>> parse_community("rt:64500:9").kind
    'extended'
    """
    if not isinstance(text, str):
        raise MalformedCommunityError(
            f"community must be a string, got {text!r}")
    cleaned = text.strip()
    lowered = cleaned.lower()
    if lowered.startswith(("rt:", "ro:", "generic:")):
        return ExtendedCommunity.from_string(cleaned)
    fields = cleaned.strip("()").replace(",", ":").split(":")
    if len(fields) == 2:
        return StandardCommunity.from_string(cleaned)
    if len(fields) == 3:
        return LargeCommunity.from_string(cleaned)
    raise MalformedCommunityError(f"unrecognised community: {text!r}")


def community_kind(community: Community) -> str:
    """Return ``"standard"``, ``"extended"``, or ``"large"``."""
    return community.kind


def standard(asn: int, value: int) -> StandardCommunity:
    """Shorthand constructor used pervasively by the IXP schemes."""
    return StandardCommunity(asn, value)


def large(global_admin: int, d1: int, d2: int) -> LargeCommunity:
    """Shorthand constructor for large communities."""
    return LargeCommunity(global_admin, d1, d2)


def encodes_asn_target(community: StandardCommunity) -> bool:
    """Whether the community's value field plausibly names a 16-bit ASN.

    IXP action communities of the form ``RS_ASN:TARGET`` (or ``0:TARGET``)
    can only name 16-bit targets; schemes use large communities for 32-bit
    targets. This predicate is used by target extraction.
    """
    return 0 < community.value <= MAX_ASN16


__all__ = [
    "StandardCommunity", "ExtendedCommunity", "LargeCommunity", "Community",
    "parse_community", "community_kind", "standard", "large",
    "encodes_asn_target", "NO_EXPORT", "NO_ADVERTISE",
    "NO_EXPORT_SUBCONFED", "BLACKHOLE", "WELL_KNOWN_NAMES", "MAX_ASN32",
]
