"""The route server itself (RFC 7947 multilateral peering).

Ties together the import :class:`FilterChain`, the action-community
:class:`PolicyEngine`, and the :class:`RibStore`. Peers announce
:class:`~repro.bgp.route.Route` objects; the server filters, stamps
informational communities, stores, and can compute per-peer export
views with action semantics applied and action communities scrubbed.

The Looking Glass reads the server through :meth:`peers_summary` and
:meth:`accepted_routes` / :meth:`filtered_routes` — the same two route
sets the paper's §3 describes.
"""

from __future__ import annotations

import types
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

from .. import obs
from ..bgp.route import Route
from ..ixp.member import Member
from ..utils import stable_fraction
from .config import RouteServerConfig
from .filters import FilterChain
from .policy import PolicyEngine, RoutePolicy
from .rib import RibStore

# Hot-path metrics: every child here is bound once per observability
# generation (see MetricSet), so `announce` pays one attribute read
# and one (no-op when disabled) increment per route.
_METRICS = obs.MetricSet(lambda reg: types.SimpleNamespace(
    routes=reg.counter(
        "repro_routeserver_routes_processed_total",
        "Announcements run through the import pipeline").labels(),
    accepted=reg.counter(
        "repro_routeserver_routes_accepted_total",
        "Announcements accepted into the Adj-RIB-In").labels(),
    rib_routes=reg.gauge(
        "repro_routeserver_rib_routes",
        "Adj-RIB-In size per peer (refreshed on summary reads, "
        "not per update)", ("peer", "kind")),
))


@dataclass(frozen=True)
class PeerSession:
    """State of one BGP session at the route server."""

    member: Member
    established: bool = True

    @property
    def asn(self) -> int:
        return self.member.asn


class RouteServer:
    """A simulated IXP route server for one address family."""

    def __init__(self, config: RouteServerConfig) -> None:
        if config.dictionary is None:
            raise ValueError("RouteServerConfig.dictionary is required")
        self.config = config
        self._filters = FilterChain.from_config(config)
        self._policy = PolicyEngine(
            config.dictionary, config.rs_asn,
            blackholing_enabled=config.blackholing_enabled)
        self._ribs = RibStore()
        self._sessions: Dict[int, PeerSession] = {}
        self._policy_cache: Dict[Tuple[int, str], RoutePolicy] = {}

    # -- session management --------------------------------------------

    def add_peer(self, member: Member) -> PeerSession:
        """Establish a session with *member*; idempotent."""
        session = PeerSession(member)
        self._sessions[member.asn] = session
        return session

    def remove_peer(self, peer_asn: int) -> None:
        """Tear down the session and flush the peer's routes."""
        self._sessions.pop(peer_asn, None)
        self._ribs.drop_peer(peer_asn)
        self._policy_cache = {key: value
                              for key, value in self._policy_cache.items()
                              if key[0] != peer_asn}

    def peers(self) -> List[PeerSession]:
        return [self._sessions[asn] for asn in sorted(self._sessions)]

    def peer_asns(self) -> List[int]:
        return sorted(self._sessions)

    def has_peer(self, peer_asn: int) -> bool:
        return peer_asn in self._sessions

    # -- announcements ---------------------------------------------------

    def announce(self, route: Route) -> Route:
        """Process one announcement; returns the stored route (accepted
        or marked filtered with the rejecting filter's reason)."""
        if route.peer_asn not in self._sessions:
            raise KeyError(f"AS{route.peer_asn} has no session with the RS")
        metrics = _METRICS()
        metrics.routes.inc()
        verdict = self._filters.evaluate(route)
        if verdict.accepted:
            metrics.accepted.inc()
            stored = self._stamp_informational(route)
            stored = replace(stored, filtered=False, filter_reason=None)
        else:
            stored = replace(route, filtered=True,
                             filter_reason=verdict.reason)
        self._ribs.rib_for(route.peer_asn).insert(stored)
        self._policy_cache.pop((route.peer_asn, route.prefix), None)
        return stored

    def _stamp_informational(self, route: Route) -> Route:
        """Add the RS's informational tags (RS behaviour per §5.1: "the
        informational ones being added by the IXP typically to every
        route").

        When ``informational_per_route`` is a float, the fractional part
        is realised by stamping one extra tag on a deterministic
        per-prefix subset of routes, so a rate of 2.6 yields exactly 2.6
        informational instances per route in expectation.
        """
        if not (self.config.add_informational_communities
                and self.config.informational_tags):
            return route
        pool = self.config.informational_tags
        rate = self.config.informational_per_route
        if rate is None:
            tags = set(pool)
        else:
            base = min(int(rate), len(pool))
            fraction = max(0.0, rate - base)
            tags = set(pool[:base])
            if (fraction > 0 and len(pool) > base
                    and stable_fraction(route.prefix, "info-extra")
                    < fraction):
                tags.add(pool[base])
        if not tags:
            return route
        return route.with_communities(set(route.communities) | tags)

    # -- views -----------------------------------------------------------

    def accepted_routes(self, peer_asn: Optional[int] = None) -> List[Route]:
        """Accepted Adj-RIB-In routes (of one peer, or all)."""
        if peer_asn is not None:
            return self._ribs.rib_for(peer_asn).accepted()
        return list(self._ribs.all_accepted())

    def filtered_routes(self, peer_asn: Optional[int] = None) -> List[Route]:
        if peer_asn is not None:
            return self._ribs.rib_for(peer_asn).filtered()
        return list(self._ribs.all_filtered())

    def peers_summary(self) -> List[Dict[str, object]]:
        """The LG ``/neighbors`` summary: one row per session."""
        rows: List[Dict[str, object]] = []
        update_gauges = obs.enabled()
        metrics = _METRICS()
        for session in self.peers():
            rib = self._ribs.rib_for(session.asn)
            rows.append({
                "asn": session.asn,
                "name": session.member.name,
                "state": "Established" if session.established else "Idle",
                "routes_accepted": rib.accepted_count,
                "routes_filtered": rib.filtered_count,
            })
            if update_gauges:
                # gauges refresh on this (read-side) path so the
                # per-announce hot path never allocates label strings
                peer = str(session.asn)
                metrics.rib_routes.labels(peer, "accepted").set(
                    rib.accepted_count)
                metrics.rib_routes.labels(peer, "filtered").set(
                    rib.filtered_count)
        return rows

    def policy_for(self, route: Route) -> RoutePolicy:
        """Compiled action policy for an accepted route (cached)."""
        key = (route.peer_asn, route.prefix)
        policy = self._policy_cache.get(key)
        if policy is None:
            policy = self._policy.compile(route)
            self._policy_cache[key] = policy
        return policy

    def export_to(self, peer_asn: int) -> List[Route]:
        """The Adj-RIB-Out towards *peer_asn*: every accepted route from
        other peers that the per-route policy allows, prepends applied,
        action communities scrubbed (when configured)."""
        if peer_asn not in self._sessions:
            raise KeyError(f"AS{peer_asn} has no session with the RS")
        exported: List[Route] = []
        for route in self._ribs.all_accepted():
            policy = self.policy_for(route)
            result = self._policy.export_route(
                route, policy, peer_asn,
                scrub=self.config.scrub_action_communities)
            if result is not None:
                exported.append(result)
        return exported

    def ineffective_targets_of(self, route: Route) -> Iterable[int]:
        """Targets of this route's action communities that are not RS
        peers (§5.5)."""
        return self._policy.ineffective_targets(route, self.peer_asns())

    def statistics(self) -> Dict[str, int]:
        accepted, filtered = self._ribs.totals()
        return {
            "peers": len(self._sessions),
            "routes_accepted": accepted,
            "routes_filtered": filtered,
            "prefixes": self._ribs.unique_accepted_prefixes(),
        }
