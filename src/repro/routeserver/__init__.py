"""Route-server substrate: RFC 7947 simulator with action communities."""

from .config import RouteServerConfig
from .filters import (
    BogonAsnFilter,
    BogonPrefixFilter,
    FilterChain,
    FilterVerdict,
    MaxCommunitiesFilter,
    PathLengthFilter,
    PathLoopFilter,
    PeerAsFilter,
    PrefixLengthFilter,
    WrongFamilyFilter,
)
from .policy import PolicyEngine, RoutePolicy
from .rib import AdjRibIn, RibStore
from .server import PeerSession, RouteServer

__all__ = [
    "RouteServer", "RouteServerConfig", "PeerSession",
    "FilterChain", "FilterVerdict", "PolicyEngine", "RoutePolicy",
    "AdjRibIn", "RibStore",
    "WrongFamilyFilter", "BogonPrefixFilter", "BogonAsnFilter",
    "PathLengthFilter", "PathLoopFilter", "PrefixLengthFilter",
    "PeerAsFilter", "MaxCommunitiesFilter",
]
