"""Snapshot scraper: drives the LG client the way §3 describes.

For each (IXP, family): first fetch the summary (the list of peers and
their route counts), then collect all accepted routes per peer, then
assemble a :class:`~repro.collector.snapshot.Snapshot`. The community
dictionary is the union of the LG ``/config`` payload and a "website"
dictionary supplied by the caller (§3's two sources).

Collection is resilient: a peer whose route fetch keeps failing is
recorded in the report rather than aborting the snapshot — partial
snapshots are exactly what the sanitation pass (§3) exists to catch.
Only peers whose routes were actually collected become snapshot
members; failed peers appear solely in the report and the snapshot's
``meta`` (a degraded snapshot must not over-count the membership the
RS showed us).

Peers are fetched one at a time, in ASN order, whatever order the LG
lists them in, so the member list, route list, and on-disk bytes are
deterministic. Concurrent collection is the campaign's job
(:class:`~repro.collector.campaign.CollectionCampaign` with
``io="async"``), which writes byte-identical snapshots.

The default capture date is computed in UTC — a scrape started near
local midnight must date its snapshot the same way on every machine.
"""

from __future__ import annotations

import datetime as _dt
import time
import types
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .. import obs
from ..bgp.route import Route
from ..ixp.dictionary import CommunityDictionary
from ..ixp.member import Member, MemberRole
from ..lg.client import LookingGlassClient, LookingGlassError
from .snapshot import Snapshot

_METRICS = obs.MetricSet(lambda reg: types.SimpleNamespace(
    collected=reg.counter(
        "repro_scraper_peers_collected_total",
        "Peers whose routes one-shot scrapes collected",
        ("ixp", "family")),
    failed=reg.counter(
        "repro_scraper_peers_failed_total",
        "Peers one-shot scrapes lost, by failure class",
        ("ixp", "family", "class")),
    fetch=reg.histogram(
        "repro_scraper_peer_fetch_seconds",
        "Wall-clock time fetching one peer's full route set",
        ("ixp", "family")),
))


def utc_today() -> str:
    """Today's ISO date in UTC — the deterministic default capture
    date (local-timezone ``date.today()`` flips a day earlier/later
    near midnight depending on the machine)."""
    return _dt.datetime.now(_dt.timezone.utc).date().isoformat()


@dataclass
class ScrapeReport:
    """Outcome of one snapshot collection."""

    snapshot: Optional[Snapshot] = None
    peers_attempted: int = 0
    peers_collected: int = 0
    peers_failed: List[int] = field(default_factory=list)
    #: why each failed peer was lost: ASN → taxonomy failure class
    #: (``breaker_open`` when the mount's circuit breaker refused the
    #: fetch — distinct from an observed ``lg_outage``).
    failure_classes: Dict[int, str] = field(default_factory=dict)
    #: set when the collection failed before any peer could be tried
    #: (e.g. the neighbor summary itself was unreachable).
    error: Optional[str] = None

    @property
    def complete(self) -> bool:
        return (not self.peers_failed and self.snapshot is not None
                and self.error is None)


class SnapshotScraper:
    """Collects one snapshot from a Looking Glass, one peer at a time:
    the paper's strictly sequential single-connection discipline."""

    def __init__(self, client: LookingGlassClient) -> None:
        self.client = client

    def fetch_dictionary(
            self,
            website_dictionary: Optional[CommunityDictionary] = None,
    ) -> CommunityDictionary:
        """The §3 dictionary: LG config ∪ website documentation."""
        rs_dictionary = self.client.config_dictionary()
        if website_dictionary is None:
            return rs_dictionary
        return CommunityDictionary.union(
            rs_dictionary.ixp_name, rs_dictionary, website_dictionary)

    # -- snapshot assembly ------------------------------------------------

    def collect(self, captured_on: Optional[str] = None) -> ScrapeReport:
        """Collect the snapshot: summary first, then per-peer routes."""
        report = ScrapeReport()
        captured_on = captured_on or utc_today()
        try:
            neighbors = self.client.neighbors()
        except LookingGlassError as error:
            # No peer list means no snapshot — but a failed summary
            # must not abort a multi-LG collection run.
            report.error = str(error)
            return report
        # Deterministic ASN order: the snapshot bytes do not depend on
        # the order the LG lists its peers in.
        established = sorted(
            (n for n in neighbors if n.established),
            key=lambda n: n.asn)

        metrics = _METRICS()
        mount = (self.client.ixp, str(self.client.family))
        members: List[Member] = []
        routes: List[Route] = []
        filtered_count = 0
        for neighbor in established:
            report.peers_attempted += 1
            started = time.perf_counter()
            try:
                peer_routes = list(self.client.routes(neighbor.asn))
            except LookingGlassError as error:
                # a lost peer is recorded, never fatal to the snapshot
                report.peers_failed.append(neighbor.asn)
                report.failure_classes[neighbor.asn] = \
                    error.failure_class
                metrics.failed.labels(*mount, error.failure_class).inc()
                continue
            finally:
                metrics.fetch.labels(*mount).observe(
                    time.perf_counter() - started)
            report.peers_collected += 1
            metrics.collected.labels(*mount).inc()
            # membership is an observation: only a peer whose routes we
            # actually hold counts as present at the RS this day.
            members.append(Member(
                asn=neighbor.asn,
                name=neighbor.name,
                role=MemberRole.ACCESS_ISP,  # role is not observable
                at_rs_v4=self.client.family == 4,
                at_rs_v6=self.client.family == 6,
            ))
            routes.extend(peer_routes)
            filtered_count += neighbor.routes_filtered
        report.snapshot = Snapshot(
            ixp=self.client.ixp,
            family=self.client.family,
            captured_on=captured_on,
            members=members,
            routes=routes,
            filtered_count=filtered_count,
            meta={
                "source": self.client.base_url,
                "peers_failed": list(report.peers_failed),
                "peer_failure_classes": {
                    str(asn): cls
                    for asn, cls in report.failure_classes.items()},
                "degraded": bool(report.peers_failed),
            },
        )
        return report
