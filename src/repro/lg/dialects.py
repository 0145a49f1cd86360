"""Looking Glass API dialects.

The eight studied IXPs do not share one LG implementation: DE-CIX and
LINX run alice-lg, BCIX birdseye, IX.br and AMS-IX custom frontends.
The paper's collection pipeline (like Periscope, its citation [25]) had
to unify them. This module models that heterogeneity:

* the **alice** dialect is the native schema of :mod:`repro.lg.api`;
* the **birdseye** dialect renders the same information with the field
  names and URL layout of a birdseye deployment
  (``/api/protocols`` and ``/api/routes/<protocol>``);

plus translators mapping every dialect's payloads to the common
client-side types (:class:`~repro.lg.api.NeighborSummary`, routes), so
the collection works unchanged against either.

The translators are the one place where the LG client turns untrusted
JSON into typed values. A payload that decodes but has the wrong shape
or an unparseable field raises :class:`~repro.lg.client.MalformedPayloadError`,
so it lands in the ``malformed_payload`` failure class like truncated
JSON does.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Sequence, TypeVar

from ..bgp.aspath import AsPath
from ..bgp.communities import parse_community
from ..bgp.route import Route
from . import api
from .client import MalformedPayloadError

DIALECT_ALICE = "alice"
DIALECT_BIRDSEYE = "birdseye"
DIALECTS = (DIALECT_ALICE, DIALECT_BIRDSEYE)


class DialectError(ValueError):
    """Unknown dialect."""


# -- birdseye rendering (server side) -----------------------------------


def birdseye_protocols(rows: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Render ``/neighbors`` rows as a birdseye ``/api/protocols``
    response: protocols keyed ``pb_<asn>``, birdseye field names."""
    protocols: Dict[str, Any] = {}
    for row in rows:
        protocols[f"pb_{row['asn']}"] = {
            "neighbor_as": row["asn"],
            "description": row["name"],
            "state": "up" if row["state"] == "Established" else "down",
            "routes_imported": row["routes_accepted"],
            "routes_filtered": row["routes_filtered"],
        }
    return {"protocols": protocols}


def birdseye_routes(routes: Sequence[Route], page: int, page_size: int,
                    total: int) -> Dict[str, Any]:
    """Render a routes page in birdseye's schema (``network``/``bgp``
    sub-object, string community tuples)."""
    rendered = []
    for route in routes:
        rendered.append({
            "network": route.prefix,
            "gateway": route.next_hop,
            "bgp": {
                "as_path": [str(asn) for asn in route.as_path.asns()],
                "communities": [[c.asn, c.value]
                                for c in sorted(route.communities)],
                "ext_communities": [str(c) for c in sorted(
                    route.extended_communities)],
                "large_communities": [
                    [c.global_admin, c.local_data1, c.local_data2]
                    for c in sorted(route.large_communities)],
            },
            "from_protocol": f"pb_{route.peer_asn}",
        })
    return {
        "routes": rendered,
        "api": {
            "result_from_cache": False,
            "pagination": {
                "page": page,
                "page_size": page_size,
                "total_results": total,
                "total_pages": (total + page_size - 1) // page_size
                                if total else 1,
            },
        },
    }


# -- translation (client side) ------------------------------------------

_T = TypeVar("_T")

#: what a decoded payload of the wrong shape raises while it is read:
#: ``[].get`` (AttributeError), a missing key, a non-iterable or
#: non-subscriptable value, and every int()/prefix/community/AS-path
#: parse failure (ValueError, which the bgp parse errors subclass).
_SHAPE_ERRORS = (AttributeError, KeyError, TypeError, ValueError)


def _payload_parser(what: str) -> Callable[[Callable[[Any, str], _T]],
                                           Callable[[Any, str], _T]]:
    """Check the dialect, then map any shape error raised while reading
    the payload to :class:`MalformedPayloadError`."""
    def wrap(parse: Callable[[Any, str], _T]) -> Callable[[Any, str], _T]:
        @functools.wraps(parse)
        def guarded(payload: Any, dialect: str) -> _T:
            if dialect not in DIALECTS:
                raise DialectError(f"unknown dialect {dialect!r}")
            try:
                return parse(payload, dialect)
            except _SHAPE_ERRORS as error:
                raise MalformedPayloadError(
                    f"malformed {what} payload "
                    f"({type(error).__name__}: {error})") from error
        return guarded
    return wrap


@_payload_parser("neighbors")
def parse_neighbors(payload: Dict[str, Any],
                    dialect: str) -> List[api.NeighborSummary]:
    """Normalise a neighbors payload from any dialect."""
    if dialect == DIALECT_ALICE:
        return [api.NeighborSummary.from_dict(row)
                for row in payload.get("neighbors", ())]
    summaries = []
    for _key, protocol in sorted(payload.get("protocols", {}).items()):
        summaries.append(api.NeighborSummary(
            asn=int(protocol["neighbor_as"]),
            name=str(protocol.get("description",
                                  f"AS{protocol['neighbor_as']}")),
            state=("Established" if protocol.get("state") == "up"
                   else "Idle"),
            routes_accepted=int(protocol.get("routes_imported", 0)),
            routes_filtered=int(protocol.get("routes_filtered", 0)),
        ))
    return summaries


@_payload_parser("routes")
def parse_routes(payload: Dict[str, Any], dialect: str) -> List[Route]:
    """Normalise a routes page from any dialect."""
    if dialect == DIALECT_ALICE:
        return api.parse_routes_page(payload)
    routes = []
    for row in payload.get("routes", ()):
        bgp = row.get("bgp", {})
        peer_asn = int(str(row.get("from_protocol",
                                   "pb_0")).rpartition("_")[2])
        routes.append(Route(
            prefix=row["network"],
            next_hop=row["gateway"],
            as_path=AsPath.from_asns(
                [int(asn) for asn in bgp.get("as_path", ())]),
            peer_asn=peer_asn,
            communities=frozenset(
                parse_community(f"{a}:{b}")
                for a, b in bgp.get("communities", ())),
            extended_communities=frozenset(
                parse_community(text)
                for text in bgp.get("ext_communities", ())),
            large_communities=frozenset(
                parse_community(f"{a}:{b}:{c}")
                for a, b, c in bgp.get("large_communities", ())),
        ))
    return routes


@_payload_parser("pagination")
def total_pages(payload: Dict[str, Any], dialect: str) -> int:
    if dialect == DIALECT_ALICE:
        return api.total_pages(payload)
    return int(payload.get("api", {}).get("pagination",
                                          {}).get("total_pages", 1))
