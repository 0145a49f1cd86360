"""Looking Glass API schema.

The studied IXPs expose their route servers through LG frontends
(alice-lg at DE-CIX/LINX, birdseye at BCIX, custom UIs at IX.br/AMS-IX).
All of them boil down to the same three resources, which this module
models as plain JSON payload builders/parsers:

* ``GET /api/v1/status``                  — LG and RS liveness/metadata;
* ``GET /api/v1/config``                  — community semantics (the
  RS-config half of the paper's dictionary, §3);
* ``GET /api/v1/neighbors``               — peers with route counts;
* ``GET /api/v1/neighbors/<asn>/routes``  — accepted routes of one peer
  (paginated), with ``?filtered=1`` for the rejected set.

The server (:mod:`repro.lg.server`) renders these; the client
(:mod:`repro.lg.client`) consumes them; the collection campaign
(:mod:`repro.collector.campaign`) drives the client the way the
paper's collection pipeline drove the real LGs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..bgp.route import Route, RouteDecodeMemo

API_PREFIX = "/api/v1"
DEFAULT_PAGE_SIZE = 500
MAX_PAGE_SIZE = 2000


def status_payload(ixp: str, family: int, rs_asn: int,
                   generated_at: str) -> Dict[str, Any]:
    return {
        "status": "ok",
        "ixp": ixp,
        "family": family,
        "rs_asn": rs_asn,
        "generated_at": generated_at,
        "api_version": "v1",
    }


def neighbors_payload(rows: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    return {"neighbors": list(rows), "count": len(rows)}


def routes_payload(routes: Sequence[Route], page: int, page_size: int,
                   total: int, filtered: bool) -> Dict[str, Any]:
    return {
        "routes": [route.to_dict() for route in routes],
        "pagination": {
            "page": page,
            "page_size": page_size,
            "total_routes": total,
            "total_pages": (total + page_size - 1) // page_size if total
                            else 1,
        },
        "filtered": filtered,
    }


def error_payload(message: str, status: int) -> Dict[str, Any]:
    return {"status": "error", "code": status, "message": message}


@dataclass(frozen=True)
class NeighborSummary:
    """Client-side view of one ``/neighbors`` row."""

    asn: int
    name: str
    state: str
    routes_accepted: int
    routes_filtered: int

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "NeighborSummary":
        return cls(
            asn=int(payload["asn"]),
            name=str(payload.get("name", f"AS{payload['asn']}")),
            state=str(payload.get("state", "Established")),
            routes_accepted=int(payload.get("routes_accepted", 0)),
            routes_filtered=int(payload.get("routes_filtered", 0)),
        )

    @property
    def established(self) -> bool:
        return self.state == "Established"


def parse_routes_page(payload: Dict[str, Any]) -> List[Route]:
    memo = RouteDecodeMemo()
    return [Route.from_dict(r, memo) for r in payload.get("routes", ())]


def total_pages(payload: Dict[str, Any]) -> int:
    return int(payload.get("pagination", {}).get("total_pages", 1))
