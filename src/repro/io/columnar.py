"""Interned columnar snapshot codec (the ``columnar`` payload format).

Snapshots are stored on disk as integrity-enveloped JSON payloads
(:mod:`repro.collector.integrity`). The default payload is
``Snapshot.to_dict()`` — a route *list* that spells out every prefix,
AS-path, and community string per route. That encoding is the scaling
bottleneck for year-scale campaigns: route attributes at an IXP route
server are massively repetitive (a few hundred distinct AS-path tails
and community sets cover hundreds of thousands of routes), but the
route-major JSON layout scatters the repeats beyond gzip's 32 KiB
window and pays a full text parse per route on load.

This module provides a second *payload codec* behind the same
envelope. The columnar payload keeps the snapshot's scalar fields and
member list as plain JSON (so the store's schema tripwire — see
``REQUIRED_PAYLOAD_KEYS`` — is satisfied unchanged) and replaces the
route list with one LZMA-compressed binary body holding interned
column data:

* **runs** — routes come grouped in maximal stretches sharing
  ``(peer_asn, next_hop)`` (the shape the route server emits), so both
  columns collapse to one run header each;
* **prefix pool** — distinct prefixes, numerically sorted,
  delta-encoded (IPv6 addresses split into high/low 64-bit halves so
  sparse address space doesn't blow up the varints); per-route prefix
  references are zigzag deltas within each run;
* **AS-path tails** — paths are stored as interned *tails* (the path
  minus the leading peer ASN) attached per *prefix*, with per-route
  exceptions, because at a route server the tail is a function of the
  announcement, not of the receiving peer;
* **community set table** — each run carries a frequency-ordered
  dictionary of its distinct community strings (all three flavours in
  one pool; ``parse_community`` dispatch is structurally unambiguous)
  and a frequency-ordered table of the distinct community *sets* its
  routes attach (each set a sorted gap-varint id list into the
  dictionary). Routes repeat whole sets — an export policy tags every
  announcement it covers identically — so the per-route cost is a
  single small set-id varint, not one membership bit per community.

Every section is varint-framed, the whole body is compressed with
``lzma`` (``FORMAT_ALONE``, far better than the envelope's gzip on
bit-plane data) and embedded as base64, so the artefact on disk is
still a gzipped JSON envelope: manifests, fsck, quarantine, publish,
and the aggregate cache key all work unchanged on either codec.

Decoding is the performance story: community sets, AS paths, and
prefix strings are materialised once per distinct value and shared
across routes, and ``Route`` construction bypasses ``__post_init__``
(the pool entries are canonical by construction), making loads several
times faster than parsing the equivalent JSON route list. The values
come from a :class:`~repro.bgp.route.RouteDecodeMemo`, the one the JSON
codec uses too: a store passes the memo of the snapshot's series, so
a set, path or IPv6 prefix that the previous day of the series already
held is recalled rather than built again.
"""

from __future__ import annotations

import base64
import binascii
import ipaddress
import lzma
from collections import Counter
from itertools import accumulate
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..bgp.aspath import AsPath
from ..bgp.route import Route, RouteDecodeMemo
from ..collector.snapshot import Snapshot
from ..ixp.member import Member

#: codec registry — the value stored in the payload's ``codec`` key.
JSON_CODEC = "json"
COLUMNAR_CODEC = "columnar"
SNAPSHOT_CODECS = (JSON_CODEC, COLUMNAR_CODEC)

#: version of the columnar body layout.
COLUMNAR_VERSION = 1

#: LZMA container for the body. ``FORMAT_ALONE`` has the smallest
#: header; integrity is the envelope's job, not the compressor's.
_LZMA_FORMAT = lzma.FORMAT_ALONE
_LZMA_PRESET = 6

#: marker prefixing a stored tail that is a *full* path (the route's
#: path did not start with its peer ASN, so it cannot be rebuilt from
#: ``peer + tail``). ``!`` cannot appear in an AS path string.
_FULL_PATH_MARK = "!"


class ColumnarFormatError(ValueError):
    """Raised when a columnar body cannot be decoded.

    Subclasses :class:`ValueError` so the store's snapshot read path
    classifies a mangled body as schema drift — the same damage
    taxonomy as a JSON payload that fails ``Snapshot.from_dict``.
    """


# -- varint plumbing -----------------------------------------------------

def _write_uvarint(value: int, out: bytearray) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _write_svarint(value: int, out: bytearray) -> None:
    _write_uvarint(value << 1 if value >= 0 else ((-value) << 1) - 1, out)


def _write_str(text: str, out: bytearray) -> None:
    raw = text.encode("utf-8")
    _write_uvarint(len(raw), out)
    out += raw


class _Cursor:
    """Sequential reader over the decompressed body."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def uvarint(self) -> int:
        data, pos = self.data, self.pos
        result = 0
        shift = 0
        while True:
            try:
                byte = data[pos]
            except IndexError:
                raise ColumnarFormatError("truncated varint") from None
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                self.pos = pos
                return result
            shift += 7

    def svarint(self) -> int:
        value = self.uvarint()
        return (value >> 1) if not value & 1 else -((value + 1) >> 1)

    def text(self) -> str:
        length = self.uvarint()
        raw = self.take(length)
        return raw.decode("utf-8")

    def take(self, length: int) -> bytes:
        end = self.pos + length
        if end > len(self.data):
            raise ColumnarFormatError("truncated section")
        raw = self.data[self.pos:end]
        self.pos = end
        return raw

    def done(self) -> bool:
        return self.pos == len(self.data)


def _varints(cursor: _Cursor, count: int) -> Sequence[int]:
    """The next *count* uvarints. The set table and the per-route
    columns are runs of varints that nearly always fit one byte each;
    such a run is its own bytes, sliced without a per-value loop."""
    chunk = cursor.data[cursor.pos:cursor.pos + count]
    if len(chunk) == count and (not count or max(chunk) < 0x80):
        cursor.pos += count
        return chunk
    return [cursor.uvarint() for _ in range(count)]


#: gap -> gap + 1, as a C-level callable for ``map``
_SUCCESSOR = (1).__add__


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


# -- encoding ------------------------------------------------------------

def _route_tail(route: Route) -> str:
    """The stored path tail: path minus a leading peer ASN, or the
    full path behind :data:`_FULL_PATH_MARK` when it doesn't start
    with the peer (possible in hand-built or adversarial snapshots)."""
    text = str(route.as_path)
    peer = str(route.peer_asn)
    if text == peer:
        return ""
    if text.startswith(peer + " "):
        return text[len(peer) + 1:]
    return _FULL_PATH_MARK + text


def _community_strings(route: Route) -> List[str]:
    return [str(c) for c in route.communities] \
        + [str(c) for c in route.extended_communities] \
        + [str(c) for c in route.large_communities]


def _encode_body(routes: List[Route]) -> bytes:
    body = bytearray()
    _write_uvarint(COLUMNAR_VERSION, body)
    _write_uvarint(len(routes), body)

    # -- runs of (peer_asn, next_hop) ---------------------------------
    runs: List[Tuple[int, str, List[Route]]] = []
    for route in routes:
        if runs and runs[-1][0] == route.peer_asn \
                and runs[-1][1] == route.next_hop:
            runs[-1][2].append(route)
        else:
            runs.append((route.peer_asn, route.next_hop, [route]))
    _write_uvarint(len(runs), body)

    # -- prefix pool, numerically sorted ------------------------------
    networks = {route.prefix: ipaddress.ip_network(route.prefix)
                for route in routes}
    pool = sorted(networks, key=lambda p: (
        networks[p].version, int(networks[p].network_address),
        networks[p].prefixlen))
    pool_index = {prefix: i for i, prefix in enumerate(pool)}
    v4 = [p for p in pool if networks[p].version == 4]
    v6 = pool[len(v4):]
    _write_uvarint(len(v4), body)
    _write_uvarint(len(v6), body)
    previous = 0
    for prefix in v4:
        address = int(networks[prefix].network_address)
        _write_uvarint(address - previous, body)
        previous = address
    previous_high = 0
    for prefix in v6:
        address = int(networks[prefix].network_address)
        high, low = address >> 64, address & 0xFFFFFFFFFFFFFFFF
        _write_uvarint(high - previous_high, body)
        _write_uvarint(low, body)
        previous_high = high
    body += bytes(networks[prefix].prefixlen for prefix in pool)

    # -- AS-path tails: per-prefix default + per-route exceptions -----
    tail_index: Dict[str, int] = {}
    default_tail: Dict[str, int] = {}
    exceptions: List[Tuple[int, int]] = []
    for position, route in enumerate(routes):
        tail = _route_tail(route)
        tail_id = tail_index.setdefault(tail, len(tail_index))
        if route.prefix not in default_tail:
            default_tail[route.prefix] = tail_id
        elif tail_id != default_tail[route.prefix]:
            exceptions.append((position, tail_id))
    _write_uvarint(len(tail_index), body)
    for tail in tail_index:           # insertion order == id order
        _write_str(tail, body)
    for prefix in pool:
        _write_uvarint(default_tail[prefix], body)
    _write_uvarint(len(exceptions), body)
    previous = -1
    for position, tail_id in exceptions:
        _write_uvarint(position - previous - 1, body)
        _write_uvarint(tail_id, body)
        previous = position

    # -- per-run community dictionary, set table, prefix column -------
    for peer_asn, next_hop, run in runs:
        count = len(run)
        _write_uvarint(peer_asn, body)
        _write_str(next_hop, body)
        _write_uvarint(count, body)
        per_route = [_community_strings(route) for route in run]
        frequency: Counter = Counter()
        first_seen: Dict[str, int] = {}
        for strings in per_route:
            frequency.update(strings)
            for community in strings:
                first_seen.setdefault(community, len(first_seen))
        universe = sorted(frequency, key=lambda c: (-frequency[c],
                                                    first_seen[c]))
        universe_index = {c: i for i, c in enumerate(universe)}
        _write_uvarint(len(universe), body)
        for community in universe:
            _write_str(community, body)
        # distinct community *sets*, frequency-ordered so the hot set
        # ids stay single-byte; each set is a sorted gap-varint id
        # list into the run dictionary.
        keys = [tuple(sorted(universe_index[c] for c in strings))
                for strings in per_route]
        set_frequency: Counter = Counter(keys)
        set_first: Dict[Tuple[int, ...], int] = {}
        for key in keys:
            set_first.setdefault(key, len(set_first))
        table = sorted(set_frequency, key=lambda k: (-set_frequency[k],
                                                     set_first[k]))
        table_index = {key: i for i, key in enumerate(table)}
        _write_uvarint(len(table), body)
        for key in table:
            _write_uvarint(len(key), body)
            previous = -1
            for community_id in key:
                _write_uvarint(community_id - previous - 1, body)
                previous = community_id
        for key in keys:
            _write_uvarint(table_index[key], body)
        previous = 0
        for position, route in enumerate(run):
            index = pool_index[route.prefix]
            _write_svarint(index if position == 0 else index - previous,
                           body)
            previous = index

    # -- filtered routes ----------------------------------------------
    filtered = [(position, route.filter_reason)
                for position, route in enumerate(routes) if route.filtered]
    _write_uvarint(len(filtered), body)
    previous = -1
    for position, reason in filtered:
        _write_uvarint(position - previous - 1, body)
        _write_uvarint(0 if reason is None else 1, body)
        if reason is not None:
            _write_str(reason, body)
        previous = position
    return bytes(body)


def encode_snapshot_payload(snapshot: Snapshot,
                            codec: str = JSON_CODEC) -> Dict[str, Any]:
    """Serialise *snapshot* into an envelope payload in *codec* form.

    Both codecs produce payloads carrying the full
    ``REQUIRED_PAYLOAD_KEYS`` schema; the columnar one replaces the
    route list with ``{"n": ..., "blob": <base64 lzma body>}`` and
    tags itself with ``"codec": "columnar"``. Encoding is
    deterministic: one snapshot value always yields one payload (and
    therefore one on-disk byte sequence through the envelope).
    """
    if codec == JSON_CODEC:
        return snapshot.to_dict()
    if codec != COLUMNAR_CODEC:
        raise ValueError(f"unknown snapshot codec: {codec!r}")
    body = _encode_body(snapshot.routes)
    blob = lzma.compress(body, format=_LZMA_FORMAT, preset=_LZMA_PRESET)
    return {
        "codec": COLUMNAR_CODEC,
        "columnar_version": COLUMNAR_VERSION,
        "ixp": snapshot.ixp,
        "family": snapshot.family,
        "captured_on": snapshot.captured_on,
        "members": [member.to_dict() for member in snapshot.members],
        "routes": {
            "n": len(snapshot.routes),
            "blob": base64.b64encode(blob).decode("ascii"),
        },
        "filtered_count": snapshot.filtered_count,
        "meta": snapshot.meta,
    }


# -- decoding ------------------------------------------------------------

def _format_v4(address: int, prefixlen: int) -> str:
    return (f"{address >> 24}.{(address >> 16) & 255}."
            f"{(address >> 8) & 255}.{address & 255}/{prefixlen}")


def _decode_prefix_pool(cursor: _Cursor,
                        v6_prefixes: Dict[int, str]) -> List[str]:
    v4_count = cursor.uvarint()
    v6_count = cursor.uvarint()
    v4_addresses = []
    address = 0
    for _ in range(v4_count):
        address += cursor.uvarint()
        v4_addresses.append(address)
    v6_addresses = []
    high = 0
    for _ in range(v6_count):
        high += cursor.uvarint()
        v6_addresses.append((high << 64) | cursor.uvarint())
    prefixlens = cursor.take(v4_count + v6_count)
    pool = [_format_v4(address, prefixlens[i])
            for i, address in enumerate(v4_addresses)]
    for i, address in enumerate(v6_addresses):
        pool.append(v6_prefixes[(address << 8) | prefixlens[v4_count + i]])
    return pool


def _decode_body(raw: bytes, expected_routes: int,
                 memo: RouteDecodeMemo) -> List[Route]:
    cursor = _Cursor(raw)
    version = cursor.uvarint()
    if version != COLUMNAR_VERSION:
        raise ColumnarFormatError(
            f"unsupported columnar body version {version}")
    total = cursor.uvarint()
    if total != expected_routes:
        raise ColumnarFormatError(
            f"body carries {total} routes, payload says {expected_routes}")
    run_count = cursor.uvarint()
    pool = _decode_prefix_pool(cursor, memo.v6_prefixes)

    tail_count = cursor.uvarint()
    tails = [cursor.text() for _ in range(tail_count)]
    default_tail = [cursor.uvarint() for _ in pool]
    if any(tail_id >= tail_count for tail_id in default_tail):
        raise ColumnarFormatError("default tail out of range")
    exception_count = cursor.uvarint()
    tail_overrides: Dict[int, int] = {}
    position = -1
    for _ in range(exception_count):
        position += cursor.uvarint() + 1
        tail_overrides[position] = cursor.uvarint()

    new_route = object.__new__
    communities, rows, paths = memo.communities, memo.rows, memo.paths
    path_cache: Dict[int, Dict[int, AsPath]] = {}  # peer -> tail id -> path
    routes: List[Optional[Route]] = []
    for _ in range(run_count):
        peer_asn = cursor.uvarint()
        next_hop = cursor.text()
        count = cursor.uvarint()
        universe_size = cursor.uvarint()
        # each community string, indexed by id + 1 (the running sum of
        # gap + 1 below); every one is parsed, or recalled, here, so a
        # malformed string fails the body even if no set uses it
        names: List[Any] = [None]
        for _ in range(universe_size):
            name = cursor.text()
            communities[name]
            names.append(name)
        table_size = cursor.uvarint()
        set_table: List[Tuple[frozenset, ...]] = []
        for _ in range(table_size):
            gaps = _varints(cursor, cursor.uvarint())
            # each member's id + 1, ascending
            slots = list(accumulate(map(_SUCCESSOR, gaps)))
            if slots and slots[-1] > universe_size:
                raise ColumnarFormatError("set member out of range")
            # keyed by the member strings, whose hashes are cached:
            # a recalled row costs no community __hash__
            set_table.append(rows[tuple(map(names.__getitem__, slots))])
        set_ids = _varints(cursor, count)
        if count and max(set_ids) >= table_size:
            raise ColumnarFormatError("set reference out of range")
        run_base = len(routes)
        run_overrides = {position - run_base: tail_id
                         for position, tail_id in tail_overrides.items()
                         if run_base <= position < run_base + count}
        indices = list(accumulate(map(_unzigzag, _varints(cursor, count))))
        if indices and not (0 <= min(indices) and max(indices) < len(pool)):
            raise ColumnarFormatError("prefix reference out of range")
        peer_paths = path_cache.setdefault(peer_asn, {})
        append_route = routes.append
        for position, (index, set_id) in enumerate(zip(indices, set_ids)):
            sets = set_table[set_id]
            tail_id = run_overrides.get(position) if run_overrides \
                else None
            if tail_id is None:
                tail_id = default_tail[index]
            path = peer_paths.get(tail_id)
            if path is None:
                if tail_id >= tail_count:
                    raise ColumnarFormatError("tail reference out of range")
                tail = tails[tail_id]
                if tail.startswith(_FULL_PATH_MARK):
                    path = paths[tail[1:]]
                elif tail:
                    path = paths[f"{peer_asn} {tail}"]
                else:
                    path = paths[str(peer_asn)]
                peer_paths[tail_id] = path
            route = new_route(Route)
            route.__dict__.update(
                prefix=pool[index], next_hop=next_hop, as_path=path,
                peer_asn=peer_asn, communities=sets[0],
                extended_communities=sets[1], large_communities=sets[2],
                filtered=False, filter_reason=None)
            append_route(route)
    if len(routes) != total:
        raise ColumnarFormatError("run lengths do not sum to route count")

    filtered_count = cursor.uvarint()
    position = -1
    for _ in range(filtered_count):
        position += cursor.uvarint() + 1
        if position >= total:
            raise ColumnarFormatError("filtered reference out of range")
        reason = cursor.text() if cursor.uvarint() else None
        patched = new_route(Route)
        patched.__dict__.update(routes[position].__dict__,
                                filtered=True, filter_reason=reason)
        routes[position] = patched
    if not cursor.done():
        raise ColumnarFormatError("trailing bytes after columnar body")
    return routes


def decode_columnar_routes(routes_section: Dict[str, Any],
                           memo: Optional[RouteDecodeMemo] = None,
                           ) -> List[Route]:
    """Decode the ``routes`` section of a columnar payload, through
    *memo* when given (else one of its own)."""
    try:
        expected = int(routes_section["n"])
        blob = base64.b64decode(routes_section["blob"].encode("ascii"),
                                validate=True)
        raw = lzma.decompress(blob, format=_LZMA_FORMAT)
    except (KeyError, TypeError, AttributeError, binascii.Error,
            lzma.LZMAError) as error:
        raise ColumnarFormatError(
            f"columnar routes section unreadable: {error}") from error
    return _decode_body(raw, expected,
                        RouteDecodeMemo() if memo is None else memo)


def payload_codec(payload: Dict[str, Any]) -> str:
    """The codec a snapshot payload was written with."""
    codec = payload.get("codec", JSON_CODEC)
    if not isinstance(codec, str) or codec not in SNAPSHOT_CODECS:
        raise ColumnarFormatError(f"unknown snapshot codec: {codec!r}")
    return codec


def decode_snapshot_payload(payload: Dict[str, Any],
                            memo: Optional[RouteDecodeMemo] = None,
                            ) -> Snapshot:
    """Deserialise a snapshot payload written with *either* codec.

    This is the single entry point the store's read path uses; the
    payload self-describes via its ``codec`` key (absent == JSON).
    Both codecs decode through *memo*: the store passes the successor
    of the memo its previous read of the same (IXP, family) used, so
    values that day held are recalled, not parsed again (see
    :class:`~repro.bgp.route.RouteDecodeMemo`). Without one the
    payload gets a memo of its own. The snapshot is the same either
    way.
    """
    if payload_codec(payload) == JSON_CODEC:
        return Snapshot.from_dict(payload, memo)
    routes = decode_columnar_routes(payload["routes"], memo)
    return Snapshot(
        ixp=str(payload["ixp"]),
        family=int(payload["family"]),
        captured_on=str(payload["captured_on"]),
        members=[Member.from_dict(m) for m in payload.get("members", ())],
        routes=routes,
        filtered_count=int(payload.get("filtered_count", 0)),
        meta=dict(payload.get("meta", {})),
    )
