"""Exception hierarchy for the BGP substrate.

Every error raised by :mod:`repro.bgp` derives from :class:`BgpError`, so
callers can catch substrate-level failures with a single ``except`` clause
while still being able to distinguish parse errors from semantic ones.
"""

from __future__ import annotations


class BgpError(Exception):
    """Base class for all BGP substrate errors."""


class MalformedCommunityError(BgpError, ValueError):
    """A community string or wire blob could not be parsed."""


class MalformedPrefixError(BgpError, ValueError):
    """A prefix string could not be parsed as IPv4/IPv6 CIDR."""


class MalformedAsnError(BgpError, ValueError):
    """An AS number is out of range or syntactically invalid."""

class MalformedAsPathError(BgpError, ValueError):
    """An AS_PATH attribute is empty, malformed, or inconsistent."""

