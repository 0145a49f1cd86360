"""Dataset views: what the query API serves, and how it stays fresh.

Everything the service answers is a pure function of the dataset's
**content addresses** — the manifest-recorded sha256 of every listed
snapshot of each key, the dictionary digests, and the aggregate-cache
keys derived from them (:func:`repro.core.engine.aggregate_cache_key`).
:class:`QueryService` therefore works in two tiers:

* a **fingerprint** of those addresses, probed per request but
  memoised on each IXP's ``MANIFEST.json`` stat signature (every
  artefact write rewrites the manifest, so an unchanged stat means
  unchanged addresses): while no signature moves, a probe returns the
  same :class:`Fingerprint` object. The fingerprint digest seeds every
  strong ETag: re-collecting or back-filling a snapshot, or editing a
  dictionary, moves the addresses, hence the ETag, hence invalidates
  everything derived — by construction, exactly like the aggregate
  cache itself;
* **bodies**, built lazily from the same :class:`~repro.core.Study` /
  :mod:`repro.core.export` code paths the CLI uses (so JSON bytes are
  identical to ``repro-study export``), cached in a bounded
  :class:`~repro.query.cache.ResponseCache` under ``(route, ETag)``,
  and for per-key aggregates persisted through the store's
  :class:`~repro.core.engine.AggregateCache` so they survive worker
  restarts and are shared across pre-fork workers.

The service is read-mostly but not read-only: a cold aggregate request
computes and persists the cache entry (the same write an ``analyze``
would have done). All store writes go through the store's atomic
publish path, so concurrent workers at worst both compute and one
wins the rename.
"""

from __future__ import annotations

import hashlib
import os
import threading
import types
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..collector.integrity import IntegrityError
from ..core.aggregate import aggregate_snapshot
from ..core.engine import AGGREGATOR_VERSION, AggregateCache, aggregate_cache_key
from ..core.export import artefact_names, dumps_rows, study_rows
from ..core.pipeline import Study, effective_dictionary
from ..core.stability import summary_variation_rows
from ..ixp.profiles import ALL_IXPS, get_profile
from .cache import ResponseCache

#: bumped whenever a response *shape* changes, so every ETag moves and
#: stale client caches revalidate into fresh bodies.
QUERY_SCHEMA_VERSION = 1

#: how many newest snapshots feed Table 3 (the paper's "daily
#: variation within one week").
TABLE3_WINDOW = 7

JSON_TYPE = "application/json"

_METRICS = obs.MetricSet(lambda reg: types.SimpleNamespace(
    fingerprints=reg.counter(
        "repro_query_fingerprint_probes_total",
        "Dataset fingerprint probes, by outcome (memo = manifest "
        "stat unchanged, refresh = addresses recomputed)",
        ("outcome",)),
    rebuilds=reg.counter(
        "repro_query_study_rebuilds_total",
        "Full Study/bundle rebuilds after a dataset change").labels(),
    aggregates=reg.counter(
        "repro_query_aggregate_builds_total",
        "Per-key aggregate computations served cold (cache misses "
        "that had to touch route data)").labels(),
))


@dataclass(frozen=True)
class KeyAddress:
    """The content addresses anchoring one ``(ixp, family)`` key."""

    ixp: str
    family: int
    #: newest snapshot date the manifest can vouch for, or None.
    captured_on: Optional[str]
    #: that snapshot's manifest-recorded payload sha256, or None.
    snapshot_sha256: Optional[str]
    dictionary_sha256: str
    #: the aggregate cache's content address for this key, or None
    #: while no verified snapshot exists.
    aggregate_key: Optional[str]
    #: every listed snapshot date, oldest first, with its
    #: manifest-recorded sha256 (None where the manifest cannot vouch
    #: for the file) — the series Tables 3/4 and ``/v1/ixps`` read.
    days: Tuple[Tuple[str, Optional[str]], ...]

    def as_dict(self) -> Dict[str, object]:
        return {
            "ixp": self.ixp,
            "family": self.family,
            "captured_on": self.captured_on,
            "snapshot_sha256": self.snapshot_sha256,
            "dictionary_sha256": self.dictionary_sha256,
            "aggregate_key": self.aggregate_key,
        }


@dataclass(frozen=True)
class Fingerprint:
    """Every key's addresses plus one digest over them all."""

    addresses: Tuple[KeyAddress, ...]
    digest: str

    def find(self, ixp: str, family: int) -> Optional[KeyAddress]:
        for address in self.addresses:
            if address.ixp == ixp and address.family == family:
                return address
        return None


@dataclass
class Response:
    """One rendered response (transport concerns stay in the server)."""

    status: int
    body: bytes
    content_type: str = JSON_TYPE
    etag: Optional[str] = None
    #: response-cache outcome for a 200 (``hit``/``miss``), else None.
    cache_event: Optional[str] = None


class _NotFound(Exception):
    """Route resolved, resource absent (unknown IXP, unserved table)."""


def _error_body(status: int, message: str) -> bytes:
    return dumps_rows({"error": message, "status": status}).encode("utf-8")


def _matches(if_none_match: Optional[str], etag: str) -> bool:
    """RFC 7232 ``If-None-Match`` for strong ETags: a list of quoted
    tags, or ``*``. Weak prefixes compare by opaque value."""
    if not if_none_match:
        return False
    candidates = [tag.strip() for tag in if_none_match.split(",")]
    quoted = f'"{etag}"'
    for tag in candidates:
        if tag == "*" or tag == quoted or tag == etag:
            return True
        if tag.startswith("W/") and tag[2:] == quoted:
            return True
    return False


#: figure aliases: ``fig1`` → the full artefact name; first artefact
#: with a given prefix wins (``fig4b`` is the checkpoint rows, the
#: full curves stay at their long name ``fig4b_curves``).
def _figure_aliases() -> Dict[str, str]:
    aliases: Dict[str, str] = {}
    for name in artefact_names():
        if not name.startswith("fig"):
            continue
        aliases.setdefault(name, name)
        short = name.split("_", 1)[0]
        aliases.setdefault(short, name)
    return aliases


class QueryService:
    """Read-mostly view layer between a store and the HTTP server."""

    def __init__(self, store, ixps: Optional[Sequence[str]] = None,
                 families: Sequence[int] = (4, 6),
                 jobs: int = 1,
                 response_cache: Optional[ResponseCache] = None) -> None:
        self.store = store
        #: None means "every IXP directory present in the store".
        self._configured_ixps = tuple(ixps) if ixps else None
        self.families = tuple(families)
        self.jobs = jobs
        self.responses = response_cache or ResponseCache()
        self._figure_aliases = _figure_aliases()
        self._lock = threading.RLock()
        #: (store root stat signature, IXPs listed under it).
        self._ixps_memo: Optional[Tuple[object, Tuple[str, ...]]] = None
        #: ixp → (manifest stat signature, per-family addresses).
        self._address_memo: Dict[
            str, Tuple[object, Tuple[KeyAddress, ...]]] = {}
        #: (per-IXP address tuples, fingerprint over them): returned
        #: as is while every IXP's memoed addresses are the same
        #: objects, so a warm probe costs one stat per IXP.
        self._fingerprint_memo: Optional[Tuple[
            Tuple[Tuple[KeyAddress, ...], ...], Fingerprint]] = None
        #: ixp → (dictionary digest, dictionary object) for the memoed
        #: stat signature; rebuilt whenever the manifest moves.
        self._dictionary_memo: Dict[str, Tuple[str, object]] = {}
        #: bundle built from the Study, keyed by fingerprint digest.
        self._bundle_digest: Optional[str] = None
        self._bundle: Optional[Dict[str, List[Dict[str, object]]]] = None
        #: Tables 3/4 rows (window → rows) of one fingerprint digest —
        #: reading the snapshot series is the most expensive build
        #: this service does, and the lock makes it single-flight: a
        #: stampede of cold misses reads the series once, not N times.
        self._variation_digest: Optional[str] = None
        self._variation: Dict[Optional[int], List[Dict[str, object]]] = {}
        #: verified payload sha256 → ``Snapshot.summary()`` for the
        #: digests the latest series pass read; a day whose bytes still
        #: verify to a known digest is not decoded again.
        self._summaries: Dict[str, Dict[str, int]] = {}

    # -- fingerprinting -------------------------------------------------

    def ixps(self) -> List[str]:
        if self._configured_ixps is not None:
            return list(self._configured_ixps)
        # unconfigured: serve every known-profile IXP the store holds
        # (foreign directories have no scheme to fall back on). The
        # listing is memoised on the root's stat signature: adding or
        # removing a directory moves its mtime and link count.
        try:
            stat = os.stat(self.store.root)
            signature: object = (stat.st_mtime_ns, stat.st_nlink,
                                 stat.st_ino)
        except OSError:
            signature = None
        memo = self._ixps_memo
        if signature is None or memo is None or memo[0] != signature:
            memo = (signature, tuple(
                ixp for ixp in self.store.ixps() if ixp in ALL_IXPS))
            self._ixps_memo = memo
        return list(memo[1])

    def _manifest_signature(self, ixp: str) -> object:
        path = self.store.root / ixp / "MANIFEST.json"
        try:
            stat = os.stat(path)
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_size, stat.st_ino)

    def _addresses_for(self, ixp: str) -> Tuple[KeyAddress, ...]:
        signature = self._manifest_signature(ixp)
        memo = self._address_memo.get(ixp)
        metrics = _METRICS()
        if memo is not None and signature is not None \
                and memo[0] == signature:
            metrics.fingerprints.labels("memo").inc()
            return memo[1]
        metrics.fingerprints.labels("refresh").inc()
        dictionary = effective_dictionary(self.store, ixp)
        dictionary_sha256 = dictionary.digest()
        self._dictionary_memo[ixp] = (dictionary_sha256, dictionary)
        series = self.store.snapshot_series(ixp, self.families)
        addresses = []
        for family in self.families:
            captured_on = snapshot_sha256 = aggregate_key = None
            for date, digest in reversed(series[family]):
                if digest:
                    captured_on, snapshot_sha256 = date, digest
                    aggregate_key = aggregate_cache_key(
                        digest, dictionary_sha256)
                    break
            addresses.append(KeyAddress(
                ixp=ixp, family=family, captured_on=captured_on,
                snapshot_sha256=snapshot_sha256,
                dictionary_sha256=dictionary_sha256,
                aggregate_key=aggregate_key, days=series[family]))
        result = tuple(addresses)
        self._address_memo[ixp] = (signature, result)
        return result

    def fingerprint(self) -> Fingerprint:
        """The dataset's current content-address fingerprint. Cheap on
        the warm path: one ``stat`` per IXP manifest, whatever the
        series length."""
        with self._lock:
            parts = tuple(self._addresses_for(ixp)
                          for ixp in self.ixps())
            memo = self._fingerprint_memo
            if memo is not None and len(memo[0]) == len(parts) \
                    and all(old is new for old, new in zip(memo[0], parts)):
                return memo[1]
            addresses = [address for part in parts for address in part]
            material = [f"q{QUERY_SCHEMA_VERSION}",
                        f"a{AGGREGATOR_VERSION}",
                        ",".join(str(f) for f in self.families)]
            for address in addresses:
                material.append(
                    f"{address.ixp}:{address.family}"
                    f":{address.captured_on}:{address.snapshot_sha256}"
                    f":{address.dictionary_sha256}:"
                    + ",".join(f"{date}={digest}"
                               for date, digest in address.days))
            digest = hashlib.sha256(
                "\n".join(material).encode("utf-8")).hexdigest()
            fingerprint = Fingerprint(addresses=tuple(addresses),
                                      digest=digest)
            self._fingerprint_memo = (parts, fingerprint)
            return fingerprint

    def _etag(self, fingerprint: Fingerprint, name: str,
              params: Dict[str, str]) -> str:
        """A route's strong ETag: sha256 over the dataset fingerprint
        (itself sha256s of content addresses) and the route identity."""
        detail = ":".join(f"{key}={params[key]}"
                          for key in sorted(params))
        material = f"{fingerprint.digest}:{name}:{detail}"
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    # -- responding -----------------------------------------------------

    def respond(self, name: str, params: Optional[Dict[str, str]] = None,
                if_none_match: Optional[str] = None) -> Response:
        """Answer one routed request.

        404s carry no ETag (they are not cacheable views of the
        dataset); everything else gets the content-derived strong
        ETag, an ``If-None-Match`` revalidation, and the response LRU.
        Builder exceptions propagate — the server's breaker accounts
        them and answers 503 while the failure persists.
        """
        params = dict(params or {})
        fingerprint = self.fingerprint()
        try:
            etag, builder = self._resolve(name, params, fingerprint)
        except _NotFound as missing:
            return Response(404, _error_body(404, str(missing)))
        if _matches(if_none_match, etag):
            return Response(304, b"", etag=etag)
        cache_key = (self._canonical(name, params), etag)
        cached = self.responses.get(cache_key)
        if cached is not None:
            return Response(200, cached, etag=etag, cache_event="hit")
        body = builder().encode("utf-8")
        self.responses.put(cache_key, body)
        return Response(200, body, etag=etag, cache_event="miss")

    def _canonical(self, name: str, params: Dict[str, str]) -> str:
        detail = "/".join(params[key] for key in sorted(params))
        return f"{name}/{detail}" if detail else name

    def _resolve(self, name: str, params: Dict[str, str],
                 fingerprint: Fingerprint,
                 ) -> Tuple[str, Callable[[], str]]:
        """Map a route to ``(etag, body builder)``, raising
        :class:`_NotFound` for resources the dataset does not have."""
        resolver = getattr(self, f"_resolve_{name}", None)
        if resolver is None:
            raise _NotFound(f"no such resource: {name}")
        return resolver(params, fingerprint)

    # -- per-route resolvers --------------------------------------------

    def _resolve_healthz(self, params: Dict[str, str],
                         fingerprint: Fingerprint,
                         ) -> Tuple[str, Callable[[], str]]:
        etag = self._etag(fingerprint, "healthz", params)

        def build() -> str:
            served = sum(1 for a in fingerprint.addresses
                         if a.snapshot_sha256 is not None)
            return dumps_rows({
                "status": "ok",
                "dataset": fingerprint.digest,
                "keys": len(fingerprint.addresses),
                "keys_with_snapshots": served,
                "response_cache": self.responses.stats(),
            })
        return etag, build

    def _resolve_ixps(self, params: Dict[str, str],
                      fingerprint: Fingerprint,
                      ) -> Tuple[str, Callable[[], str]]:
        etag = self._etag(fingerprint, "ixps", params)

        def build() -> str:
            rows = []
            for ixp in self.ixps():
                addresses = [a for a in fingerprint.addresses
                             if a.ixp == ixp]
                profile = get_profile(ixp) if ixp in ALL_IXPS else None
                rows.append({
                    "ixp": ixp,
                    "name": profile.name if profile else ixp,
                    "families": [a.family for a in addresses
                                 if a.snapshot_sha256 is not None],
                    "snapshots": sum(len(a.days) for a in addresses),
                    "newest": max(
                        (a.captured_on for a in addresses
                         if a.captured_on is not None), default=None),
                    "dictionary_sha256": addresses[0].dictionary_sha256
                    if addresses else None,
                })
            return dumps_rows(rows)
        return etag, build

    def _resolve_keys(self, params: Dict[str, str],
                      fingerprint: Fingerprint,
                      ) -> Tuple[str, Callable[[], str]]:
        etag = self._etag(fingerprint, "keys", params)

        def build() -> str:
            return dumps_rows({
                "schema_version": QUERY_SCHEMA_VERSION,
                "aggregator_version": AGGREGATOR_VERSION,
                "dataset": fingerprint.digest,
                "keys": [address.as_dict()
                         for address in fingerprint.addresses],
            })
        return etag, build

    def _resolve_aggregate(self, params: Dict[str, str],
                           fingerprint: Fingerprint,
                           ) -> Tuple[str, Callable[[], str]]:
        ixp = params.get("ixp", "")
        try:
            family = int(params.get("family", ""))
        except ValueError:
            raise _NotFound("family must be 4 or 6")
        address = fingerprint.find(ixp, family)
        if address is None:
            raise _NotFound(f"no such key: {ixp}/v{family}")
        if address.aggregate_key is None:
            raise _NotFound(
                f"no verified snapshot collected for {ixp}/v{family}")
        # the purest content address there is: the aggregate-cache key.
        etag = address.aggregate_key
        return etag, lambda: dumps_rows(self._aggregate_payload(address))

    def _aggregate_payload(self, address: KeyAddress) -> Dict:
        """The persisted aggregate-cache payload for one key,
        computing + persisting it first if this is a cold start (the
        same artefact an ``analyze`` over this store would write)."""
        assert address.aggregate_key and address.captured_on
        if not self.store.has_aggregate(address.ixp,
                                        address.aggregate_key):
            with self._lock:
                if not self.store.has_aggregate(address.ixp,
                                                address.aggregate_key):
                    self._compute_aggregate(address)
        return self.store.load_aggregate(address.ixp,
                                         address.aggregate_key)

    def _compute_aggregate(self, address: KeyAddress) -> None:
        _METRICS().aggregates.inc()
        memo = self._dictionary_memo.get(address.ixp)
        if memo is not None and memo[0] == address.dictionary_sha256:
            dictionary = memo[1]
        else:
            dictionary = effective_dictionary(self.store, address.ixp)
        snapshot, digest = self.store.read_snapshot(
            address.ixp, address.family, address.captured_on)
        aggregate = aggregate_snapshot(snapshot, dictionary)
        AggregateCache(self.store).put(
            address.ixp, address.family, address.captured_on,
            digest, dictionary, aggregate)

    def _resolve_tables(self, params: Dict[str, str],
                        fingerprint: Fingerprint,
                        ) -> Tuple[str, Callable[[], str]]:
        etag = self._etag(fingerprint, "tables", params)

        def build() -> str:
            return dumps_rows([
                {"table": 1, "path": "/v1/tables/1",
                 "title": "IXPs in numbers"},
                {"table": 2, "path": "/v1/tables/2",
                 "title": "ASes per action type"},
                {"table": 3, "path": "/v1/tables/3",
                 "title": "daily variation (newest week)"},
                {"table": 4, "path": "/v1/tables/4",
                 "title": "variation over the collected series"},
            ])
        return etag, build

    def _resolve_table(self, params: Dict[str, str],
                       fingerprint: Fingerprint,
                       ) -> Tuple[str, Callable[[], str]]:
        table = params.get("table", "")
        if table not in ("1", "2", "3", "4"):
            raise _NotFound(f"no such table: {table} (served: 1-4)")
        etag = self._etag(fingerprint, "table", params)
        if table == "1":
            return etag, lambda: dumps_rows(
                self._bundle_for(fingerprint)["table1_summary"])
        if table == "2":
            return etag, lambda: dumps_rows(
                self._bundle_for(fingerprint)["table2_ases_per_type"])
        window = TABLE3_WINDOW if table == "3" else None
        return etag, lambda: dumps_rows(
            self._variation_rows(fingerprint, window))

    def _variation_rows(self, fingerprint: Fingerprint,
                        window: Optional[int],
                        ) -> List[Dict[str, object]]:
        """Tables 3/4: min/max/Diff% over each key's snapshot series
        (the newest *window* dates, or the whole series).

        Both tables come from one series pass, memoised on the
        fingerprint digest and built under the service lock: the pass
        is the most expensive build here, and single-flight turns a
        cold-start stampede into one build plus waiters."""
        with self._lock:
            if self._variation_digest != fingerprint.digest:
                self._variation = self._build_variation_rows(fingerprint)
                self._variation_digest = fingerprint.digest
            return self._variation[window]

    def _build_variation_rows(self, fingerprint: Fingerprint,
                              ) -> Dict[Optional[int],
                                        List[Dict[str, object]]]:
        """One pass over every key's listed days. Each day is read and
        verified (quarantined if damaged, skipped like a failed
        collection, as in §3); only a day whose verified digest the
        previous pass did not see is decoded."""
        summaries: Dict[str, Dict[str, int]] = {}
        tables: Dict[Optional[int], List[Dict[str, object]]] = {
            TABLE3_WINDOW: [], None: []}
        for address in fingerprint.addresses:
            recent = {date for date, _digest
                      in address.days[-TABLE3_WINDOW:]}
            series = []
            for date, _digest in address.days:
                try:
                    snapshot, digest = self.store.read_snapshot(
                        address.ixp, address.family, date,
                        known=self._summaries)
                except (FileNotFoundError, IntegrityError):
                    continue
                summary = self._summaries[digest] if snapshot is None \
                    else snapshot.summary()
                summaries[digest] = summary
                series.append((date, summary))
            for window, kept in (
                    (TABLE3_WINDOW, [summary for date, summary in series
                                     if date in recent]),
                    (None, [summary for _date, summary in series])):
                tables[window].extend(
                    row.as_dict() for row in summary_variation_rows(
                        address.ixp, address.family, kept))
        self._summaries = summaries
        return tables

    def _resolve_figures(self, params: Dict[str, str],
                         fingerprint: Fingerprint,
                         ) -> Tuple[str, Callable[[], str]]:
        etag = self._etag(fingerprint, "figures", params)

        def build() -> str:
            return dumps_rows([
                {"figure": name, "path": f"/v1/figures/{name}"}
                for name in artefact_names() if name.startswith("fig")])
        return etag, build

    def _resolve_figure(self, params: Dict[str, str],
                        fingerprint: Fingerprint,
                        ) -> Tuple[str, Callable[[], str]]:
        artefact = self._figure_aliases.get(params.get("fig", ""))
        if artefact is None:
            raise _NotFound(
                f"no such figure: {params.get('fig', '')!r}")
        # ETag keyed on the resolved artefact, so an alias and its full
        # name revalidate interchangeably.
        etag = self._etag(fingerprint, "figure", {"fig": artefact})
        return etag, lambda: dumps_rows(
            self._bundle_for(fingerprint)[artefact])

    def _resolve_export(self, params: Dict[str, str],
                        fingerprint: Fingerprint,
                        ) -> Tuple[str, Callable[[], str]]:
        etag = self._etag(fingerprint, "export", params)
        return etag, lambda: dumps_rows(self._bundle_for(fingerprint))

    # -- study / bundle -------------------------------------------------

    def _bundle_for(self, fingerprint: Fingerprint,
                    ) -> Dict[str, List[Dict[str, object]]]:
        """The :func:`study_rows` bundle for the current dataset,
        rebuilt only when the fingerprint moves. Uses the same
        ``Study.from_store`` + ``AggregateCache`` path as the CLI, so
        warm rebuilds never touch route data."""
        with self._lock:
            if self._bundle is None \
                    or self._bundle_digest != fingerprint.digest:
                _METRICS().rebuilds.inc()
                study = Study.from_store(
                    self.store, ixps=self.ixps(),
                    families=self.families, jobs=self.jobs,
                    cache=AggregateCache(self.store))
                self._bundle = study_rows(study, self.families)
                self._bundle_digest = fingerprint.digest
            return self._bundle
