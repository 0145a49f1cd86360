"""Which public functions a traced run wraps, and how the per-layer
metrics are derived from the spans and counters they record.

Layer names follow the package's modules: ``workload``,
``routeserver``, ``lg``, ``net``, ``bgp``, ``collector``, ``io``,
``core`` and ``query``.
"""

from __future__ import annotations

import os
import statistics
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from spans import Span, Tracer, layer_times

#: every per-layer metric the traced run reports, with its unit and
#: which direction is better, in the order of BENCHMARK.json. Time
#: metrics are seconds per unit of work (see README.md).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("workload.generate_s", "s", "lower"),
    ("routeserver.announce_s", "s", "lower"),
    ("routeserver.accept_ratio", "ratio", "higher"),
    ("lg.server.handle_s", "s", "lower"),
    ("lg.server.bytes_out", "bytes", "lower"),
    ("lg.client.page_s", "s", "lower"),
    ("lg.client.requests", "count", "lower"),
    ("lg.client.retries", "count", "lower"),
    ("lg.client.useful_ratio", "ratio", "higher"),
    ("lg.dialects.parse_s", "s", "lower"),
    ("bgp.route_from_dict_s", "s", "lower"),
    ("bgp.parses_per_route", "ratio", "lower"),
    ("net.aio.connections_opened", "count", "lower"),
    ("net.aio.reuse_ratio", "ratio", "higher"),
    ("collector.checkpoint_s", "s", "lower"),
    ("collector.checkpoint_bytes", "bytes", "lower"),
    ("collector.write_amplification", "ratio", "lower"),
    ("collector.snapshot_save_s", "s", "lower"),
    ("collector.fsyncs", "count", "lower"),
    ("collector.verified_read_s", "s", "lower"),
    ("io.columnar.decode_s", "s", "lower"),
    ("io.columnar.encode_s", "s", "lower"),
    ("core.aggregate_s", "s", "lower"),
    ("core.distinct_sets_ratio", "ratio", "lower"),
    ("core.engine.cache_hit_ratio", "ratio", "higher"),
    ("core.series_s", "s", "lower"),
    ("core.export_s", "s", "lower"),
    ("query.respond_s", "s", "lower"),
    ("query.fingerprint_s", "s", "lower"),
    ("query.build_s", "s", "lower"),
    ("query.cache_hit_ratio", "ratio", "higher"),
    ("query.not_modified_share", "ratio", "higher"),
    ("query.http_overhead_ms", "ms", "lower"),
    ("query.study_rebuilds", "count", "lower"),
    ("query.aggregate_builds", "count", "lower"),
    ("query.shed", "count", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("wall.work_per_s", "1/s", "higher"),
    ("wall.latency_p50_ms", "ms", "lower"),
    ("wall.latency_p99_ms", "ms", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)


# -- installing -----------------------------------------------------------
#
# ``after`` hooks return the span's tag: numbers are written as
# ``a/b/...`` so that :func:`tag_sum` can add them up per window.

def _tag_accepted(_tracer: Tracer, _args: tuple, _kwargs: dict,
                  stored: Any) -> str:
    return "0" if stored.filtered else "1"


def _tag_lg_bytes(_tracer: Tracer, _args: tuple, _kwargs: dict,
                  result: Any) -> str:
    status, body, _headers = result
    return f"{status}/{len(body)}"


def _tag_file_bytes(_tracer: Tracer, _args: tuple, _kwargs: dict,
                    path: Any) -> str:
    return str(os.stat(path).st_size) if path is not None else "0"


def _tag_write(_tracer: Tracer, args: tuple, kwargs: dict,
               fsyncs: Any) -> str:
    data = args[1] if len(args) > 1 else kwargs["data"]
    return f"{fsyncs or 0}/{len(data)}"


def _tag_encode(_tracer: Tracer, args: tuple, kwargs: dict,
                _payload: Any) -> str:
    codec = args[1] if len(args) > 1 else kwargs.get("codec", "json")
    return f"{codec}/{len(args[0].routes)}"


def _tag_decode(_tracer: Tracer, args: tuple, _kwargs: dict,
                snapshot: Any) -> str:
    return f"{args[0].get('codec', 'json')}/{len(snapshot.routes)}"


def _tag_distinct_sets(_tracer: Tracer, args: tuple, _kwargs: dict,
                       _aggregate: Any) -> str:
    """``<distinct community sets>/<routes>`` of the aggregated
    snapshot (filtered routes excluded, as the aggregation does)."""
    routes = [r for r in args[0].routes if not r.filtered]
    distinct = {(r.communities, r.extended_communities,
                 r.large_communities) for r in routes}
    return f"{len(distinct)}/{len(routes)}"


def _tag_probe(_tracer: Tracer, _args: tuple, _kwargs: dict,
               hit: Any) -> str:
    return "0" if hit is None else "1"


def _tag_respond(_tracer: Tracer, args: tuple, kwargs: dict,
                 response: Any) -> str:
    name = args[1] if len(args) > 1 else kwargs["name"]
    params = args[2] if len(args) > 2 else kwargs.get("params")
    detail = "/".join(str(v) for _k, v in sorted((params or {}).items()))
    return f"{name}:{detail}:{response.status}:{response.cache_event or ''}"


def _keep_pool(tracer: Tracer, args: tuple, _kwargs: dict,
               _result: Any) -> str:
    tracer.pools.append(args[0])
    return ""


def install(tracer: Tracer, role: str) -> None:
    """Wrap the public functions a process of *role* calls.

    Roles: ``bench`` (the benchmark process: generation, collection,
    analysis, store), ``lg`` (the Looking Glass helper) and ``api``
    (the query API launcher; its forked workers inherit the wrappers).
    """
    from repro.bgp.route import Route
    from repro.collector import integrity
    from repro.collector.store import DatasetStore
    from repro.core import aggregate, export, stability
    from repro.core.engine import AggregateCache
    from repro.core.pipeline import Study
    from repro.io import columnar
    from repro.lg import dialects
    from repro.lg.server import LookingGlassServer
    from repro.net import aio
    from repro.routeserver.server import RouteServer
    from repro.workload.generator import SnapshotGenerator

    tracer.patch_method(SnapshotGenerator, "populated_route_server",
                        "workload.populated_route_server")
    tracer.patch_method(SnapshotGenerator, "snapshot", "workload.snapshot")
    tracer.patch_method(RouteServer, "announce", "routeserver.announce",
                        after=_tag_accepted)
    tracer.patch_method(Route, "from_dict", "bgp.route_from_dict")
    if role == "lg":
        tracer.patch_method(LookingGlassServer, "handle_bytes",
                            "lg.server.handle", after=_tag_lg_bytes)
        return
    tracer.patch_function(aio, "http_request", "lg.client.page",
                          generator=True)
    tracer.patch_method(aio.ConnectionPool, "__init__", "net.aio.pool",
                        after=_keep_pool)
    tracer.patch_function(dialects, "parse_routes", "lg.dialects.parse")
    tracer.patch_method(DatasetStore, "save_checkpoint",
                        "collector.checkpoint", after=_tag_file_bytes)
    tracer.patch_method(DatasetStore, "save_snapshot",
                        "collector.snapshot_save", after=_tag_file_bytes)
    tracer.patch_method(DatasetStore, "publish_snapshot_file",
                        "collector.snapshot_save", after=_tag_file_bytes)
    tracer.patch_method(DatasetStore, "read_snapshot",
                        "collector.verified_read")
    tracer.patch_function(integrity, "atomic_write", "collector.write",
                          after=_tag_write)
    tracer.patch_function(integrity, "atomic_publish", "collector.write",
                          after=_tag_write)
    tracer.patch_function(columnar, "encode_snapshot_payload",
                          "io.encode", after=_tag_encode)
    tracer.patch_function(columnar, "decode_snapshot_payload",
                          "io.decode", after=_tag_decode)
    tracer.patch_function(aggregate, "aggregate_snapshot",
                          "core.aggregate", after=_tag_distinct_sets)
    tracer.patch_method(AggregateCache, "probe", "core.engine.probe",
                        after=_tag_probe)
    tracer.patch_method(Study, "from_store", "core.study_from_store")
    tracer.patch_function(stability, "variation_rows", "core.variation")
    tracer.patch_function(export, "study_rows", "core.export.study_rows")
    tracer.patch_function(export, "dumps_rows", "core.export.dumps_rows")
    if role == "api":
        from repro.query.views import QueryService
        tracer.patch_method(QueryService, "respond", "query.respond",
                            after=_tag_respond)
        tracer.patch_method(QueryService, "fingerprint",
                            "query.fingerprint")


# -- deriving -------------------------------------------------------------

def in_window(spans: Iterable[Span],
              windows: Sequence[Tuple[float, float]]) -> List[Span]:
    """Spans that started inside one of the ``[start, end)`` windows
    (perf_counter is CLOCK_MONOTONIC on Linux, so windows hold across
    processes)."""
    return [s for s in spans
            if any(start <= s[1] < end for start, end in windows)]


def total(spans: Sequence[Span], name: str) -> float:
    return sum(s[2] - s[1] for s in spans if s[0] == name)


def tag_sum(spans: Sequence[Span], name: str, field: int = 0,
            prefix: str = "") -> float:
    """Sum of the *field*-th number of the ``a/b/...`` tags of *name*
    spans whose tag starts with *prefix*."""
    return sum(float(s[5].split("/")[field]) for s in spans
               if s[0] == name and s[5].startswith(prefix))


def tag_ratio(spans: Sequence[Span], name: str) -> float:
    """Sum of numerators over sum of denominators of ``n/d`` tags."""
    return ratio(tag_sum(spans, name, 0), tag_sum(spans, name, 1))


def codec_total(spans: Sequence[Span], name: str, codec: str) -> float:
    """Seconds in *name* spans tagged with *codec* (``codec/routes``)."""
    return sum(s[2] - s[1] for s in spans
               if s[0] == name and s[5].split("/")[0] == codec)


def calls(spans: Sequence[Span], name: str) -> int:
    return sum(1 for s in spans if s[0] == name)


def outer_total(spans: Sequence[Span], names: Sequence[str]) -> float:
    """Seconds inside any of *names*, counting a span nested directly
    in another of them once."""
    ids = {s[3] for s in spans if s[0] in names}
    return sum(s[2] - s[1] for s in spans
               if s[0] in names and s[4] not in ids)


def child_total(spans: Sequence[Span], parent_ids: set,
                names: Sequence[str]) -> float:
    return sum(s[2] - s[1] for s in spans
               if s[0] in names and s[4] in parent_ids)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def obs_value(snapshots: Sequence[Dict[str, Any]], name: str,
              **labels: str) -> float:
    """Sum of one ``repro.obs`` counter over process snapshots,
    restricted to samples whose labels match *labels*."""
    value = 0.0
    for snapshot in snapshots:
        family = snapshot.get(name)
        if not family:
            continue
        for sample in family["samples"]:
            if all(sample["labels"].get(k) == v
                   for k, v in labels.items()):
                value += float(sample["value"])
    return value


def common_metrics(setup_spans: Sequence[Span]) -> Dict[str, float]:
    """The set-up layers: generation and route-server import."""
    return {
        "workload.generate_s": outer_total(
            setup_spans, ("workload.populated_route_server",
                          "workload.snapshot")),
        "routeserver.announce_s": total(setup_spans,
                                        "routeserver.announce"),
        "routeserver.accept_ratio": ratio(
            tag_sum(setup_spans, "routeserver.announce"),
            calls(setup_spans, "routeserver.announce")),
    }


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def self_time_table(spans: Sequence[Span]) -> List[str]:
    """Human-readable per-span-name calls / total / self seconds, and
    each name's share of all self time (the figure README.md compares
    across generator scales)."""
    rows = sorted(layer_times(list(spans)).items(),
                  key=lambda item: -item[1]["self_s"])
    all_self = sum(row["self_s"] for _name, row in rows)
    lines = [f"  {'span':34s} {'calls':>8s} {'total_s':>10s} "
             f"{'self_s':>10s} {'self%':>6s}"]
    for name, row in rows:
        lines.append(f"  {name:34s} {int(row['calls']):8d} "
                     f"{row['total_s']:10.4f} {row['self_s']:10.4f} "
                     f"{100 * ratio(row['self_s'], all_self):6.1f}")
    return lines
