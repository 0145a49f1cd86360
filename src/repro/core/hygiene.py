"""§5.6 counterfactual: member-database-driven community hygiene.

The paper's operator interviews examine whether an IXP member database
(PeeringDB / IXPDB) could eliminate ineffective communities, and list
three objections: the databases "are not updated in real time, which
could lead to traffic disruptions"; pruning requires out-of-router
processing; and every (dis)appearance of a to-avoid AS forces the
operator to re-announce *all* of its routes.

This module simulates exactly that proposal so the objections become
measurable:

* a :class:`MemberDatabase` that sees RS membership with a configurable
  staleness lag;
* :func:`simulate_hygiene` — operators prune avoid-targets the database
  says are absent; per day we measure

  - the **residual waste**: tags kept because the stale database still
    lists a departed member,
  - the **disruption risk**: tags pruned although the target joined the
    RS within the staleness window (precisely the outage the operators
    fear),
  - the **update churn**: UPDATE messages each operator must send when
    its pruned tag set changes: the operator re-announces its whole
    table, estimated from its route count at ~120 prefixes per UPDATE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..workload.generator import SnapshotGenerator


@dataclass
class MemberDatabase:
    """An IXPDB/PeeringDB-style membership view with update lag.

    ``staleness_days`` models the database's refresh delay: a query on
    day *d* reflects the route server's membership on day
    ``d - staleness_days``.
    """

    generator: SnapshotGenerator
    family: int
    staleness_days: int = 7
    _cache: Dict[int, FrozenSet[int]] = field(default_factory=dict)

    def membership(self, day: int) -> FrozenSet[int]:
        effective = max(0, day - self.staleness_days)
        if effective not in self._cache:
            self._cache[effective] = frozenset(
                member.asn for member in
                self.generator.members_present(self.family, effective))
        return self._cache[effective]

    def lists_member(self, asn: int, day: int) -> bool:
        return asn in self.membership(day)


@dataclass(frozen=True)
class HygieneDay:
    """One day's outcome of database-driven avoid-list pruning."""

    day: int
    #: distinct (tagger, target) pairs kept because the DB lists the
    #: target as a member.
    kept_pairs: int
    #: pairs pruned because the DB says the target is absent.
    pruned_pairs: int
    #: kept pairs whose target is NOT actually at the RS today — the
    #: residual waste the stale database fails to remove.
    residual_waste_pairs: int
    #: pruned pairs whose target IS at the RS today — pruning them
    #: breaks the operator's policy (the §5.6 disruption fear).
    disruption_pairs: int
    #: UPDATE messages operators must emit because their tag set changed
    #: vs the previous day (re-announcing every covered route).
    update_messages: int

    @property
    def residual_waste_share(self) -> float:
        return (self.residual_waste_pairs / self.kept_pairs
                if self.kept_pairs else 0.0)

    @property
    def disruption_share(self) -> float:
        return (self.disruption_pairs / self.pruned_pairs
                if self.pruned_pairs else 0.0)

    def as_dict(self) -> Dict[str, object]:
        return {
            "day": self.day,
            "kept_pairs": self.kept_pairs,
            "pruned_pairs": self.pruned_pairs,
            "residual_waste_pairs": self.residual_waste_pairs,
            "disruption_pairs": self.disruption_pairs,
            "update_messages": self.update_messages,
            "residual_waste_share": self.residual_waste_share,
            "disruption_share": self.disruption_share,
        }


def _avoid_pairs(generator: SnapshotGenerator,
                 family: int) -> List[Tuple[int, int]]:
    """(tagger, target) pairs from the avoid tags of every behaviour."""
    pairs: List[Tuple[int, int]] = []
    for behavior in generator.behaviors(family).values():
        if not behavior.uses_actions:
            continue
        for tag in behavior.route_tags:
            if tag.asn == 0 and tag.value not in (0,):
                spec_dna_all = tag.value == min(
                    generator.profile.rs_asn, 0xFFFF)
                if not spec_dna_all:
                    pairs.append((behavior.asn, tag.value))
    return pairs


def _routes_per_member(generator: SnapshotGenerator, family: int,
                       day: int) -> Dict[int, int]:
    counts: Dict[int, int] = {}
    for member in generator.members_present(family, day):
        counts[member.asn] = len(
            generator.announcements_for(member, family, day))
    return counts


def simulate_hygiene(generator: SnapshotGenerator, family: int,
                     days: Sequence[int],
                     staleness_days: int = 7) -> List[HygieneDay]:
    """Run the §5.6 database-pruning proposal over *days*."""
    database = MemberDatabase(generator, family,
                              staleness_days=staleness_days)
    pairs = _avoid_pairs(generator, family)
    previous_kept: Optional[Dict[int, FrozenSet[int]]] = None
    results: List[HygieneDay] = []
    for day in days:
        at_rs_today = frozenset(
            member.asn for member in
            generator.members_present(family, day))
        db_view = database.membership(day)
        kept: Dict[int, Set[int]] = {}
        pruned: Dict[int, Set[int]] = {}
        for tagger, target in pairs:
            if tagger not in at_rs_today:
                continue
            bucket = kept if target in db_view else pruned
            bucket.setdefault(tagger, set()).add(target)
        kept_pairs = sum(len(v) for v in kept.values())
        pruned_pairs = sum(len(v) for v in pruned.values())
        residual = sum(
            1 for tagger, targets in kept.items()
            for target in targets if target not in at_rs_today)
        disruption = sum(
            1 for tagger, targets in pruned.items()
            for target in targets if target in at_rs_today)

        # churn: any tagger whose kept-set changed re-announces its
        # whole table; approximate UPDATE count from its route count
        # and ~120 prefixes per message (measured packing density).
        update_messages = 0
        if previous_kept is not None:
            route_counts = _routes_per_member(generator, family, day)
            for tagger in set(kept) | set(previous_kept):
                now = frozenset(kept.get(tagger, frozenset()))
                before = previous_kept.get(tagger, frozenset())
                if now != before:
                    routes = route_counts.get(tagger, 0)
                    update_messages += max(1, routes // 120)
        previous_kept = {tagger: frozenset(targets)
                         for tagger, targets in kept.items()}
        results.append(HygieneDay(
            day=day, kept_pairs=kept_pairs, pruned_pairs=pruned_pairs,
            residual_waste_pairs=residual, disruption_pairs=disruption,
            update_messages=update_messages))
    return results


def staleness_sweep(generator: SnapshotGenerator, family: int,
                    day: int,
                    staleness_values: Sequence[int] = (0, 1, 7, 30),
                    ) -> List[Dict[str, object]]:
    """Disruption-vs-waste trade-off as the database lag varies.

    A perfectly fresh database (staleness 0) removes all waste with no
    disruptions; real-world lags trade one for the other — the
    quantified form of the operators' §5.6 objection.
    """
    rows: List[Dict[str, object]] = []
    for staleness in staleness_values:
        outcome = simulate_hygiene(generator, family, [day],
                                   staleness_days=staleness)[0]
        rows.append({
            "staleness_days": staleness,
            "kept_pairs": outcome.kept_pairs,
            "pruned_pairs": outcome.pruned_pairs,
            "residual_waste_pairs": outcome.residual_waste_pairs,
            "disruption_pairs": outcome.disruption_pairs,
        })
    return rows
