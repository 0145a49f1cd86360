"""BGP substrate: ASNs, prefixes, communities, AS paths and routes.

This package implements the protocol-level building blocks the rest of the
reproduction stands on. Nothing in here knows about IXPs or the paper's
analyses — it is a plain BGP data-model library.
"""

from .asn import (
    BOGON_ASN_RANGES,
    contains_bogon_asn,
    format_asdot,
    is_16bit,
    is_bogon_asn,
    parse_asn,
)
from .aspath import AS_SEQUENCE, AS_SET, AsPath, AsPathSegment
from .communities import (
    BLACKHOLE,
    Community,
    ExtendedCommunity,
    LargeCommunity,
    NO_ADVERTISE,
    NO_EXPORT,
    StandardCommunity,
    community_kind,
    large,
    parse_community,
    standard,
)
from .errors import (
    BgpError,
    MalformedAsnError,
    MalformedAsPathError,
    MalformedCommunityError,
    MalformedPrefixError,
)
from .prefix import (
    address_family,
    canonical,
    is_bogon_prefix,
    is_too_broad,
    is_too_specific,
    parse_prefix,
)
from .route import Route

__all__ = [
    "AsPath", "AsPathSegment", "AS_SEQUENCE", "AS_SET",
    "Community", "StandardCommunity", "ExtendedCommunity", "LargeCommunity",
    "parse_community", "community_kind", "standard", "large",
    "NO_EXPORT", "NO_ADVERTISE", "BLACKHOLE",
    "Route",
    "parse_asn", "format_asdot", "is_16bit", "is_bogon_asn",
    "contains_bogon_asn", "BOGON_ASN_RANGES",
    "parse_prefix", "canonical", "address_family", "is_bogon_prefix",
    "is_too_specific", "is_too_broad",
    "BgpError", "MalformedAsnError", "MalformedAsPathError",
    "MalformedCommunityError", "MalformedPrefixError",
]
