"""Looking Glass substrate: JSON API, HTTP server, resilient client."""

from .api import DEFAULT_PAGE_SIZE, MAX_PAGE_SIZE, NeighborSummary
from .breaker import BreakerRegistry, CircuitBreaker
from .dialects import DIALECT_ALICE, DIALECT_BIRDSEYE, DIALECTS
from .client import (
    FAILURE_CLASSES,
    FAILURE_LG_OUTAGE,
    FAILURE_MALFORMED,
    FAILURE_RATE_LIMITED,
    FAILURE_TIMEOUT,
    CircuitOpenError,
    ClientStats,
    LookingGlassClient,
    LookingGlassError,
    MalformedPayloadError,
    OutageError,
    QueryTimeoutError,
    RateLimitedError,
    TransientError,
    parse_retry_after,
)
from .ratelimit import FaultSchedule, InstabilityInjector
from .server import LookingGlassServer

__all__ = [
    "LookingGlassServer", "LookingGlassClient",
    "parse_retry_after", "LookingGlassError",
    "TransientError", "RateLimitedError", "OutageError",
    "QueryTimeoutError", "MalformedPayloadError", "CircuitOpenError",
    "FAILURE_CLASSES", "FAILURE_RATE_LIMITED", "FAILURE_LG_OUTAGE",
    "FAILURE_TIMEOUT", "FAILURE_MALFORMED",
    "CircuitBreaker", "BreakerRegistry",
    "ClientStats", "NeighborSummary",
    "InstabilityInjector", "FaultSchedule",
    "DEFAULT_PAGE_SIZE", "MAX_PAGE_SIZE",
    "DIALECT_ALICE", "DIALECT_BIRDSEYE", "DIALECTS",
]
