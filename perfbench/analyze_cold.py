"""``analyze-cold``: every paper artefact from a collected store.

The ``analyze``/``export`` batch job. Set-up writes the final week (7
days) of one large IXP (DE-CIX Frankfurt) and two small ones (BCIX,
Netnod), both families, into a JSON store. A unit process
(``unit_proc.py``) then runs analyses, each of a fresh copy of that
store, so the aggregate cache is on but empty: ``Study.from_store``,
the full ``study_rows`` export bundle, and the Tables 3/4 variation
rows over the stored series (each table loads its own series, as the
query service does).

Loads ``collector`` verified reads, JSON decode, ``bgp`` parsing and
``core`` aggregation and export; ``lg``, ``net`` and ``io.columnar``
stay idle, so this is the bypass workload for a columnar change.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import layers
from common import Bench, Gauge, run_units
from spans import Tracer

IXPS = ("decix-fra", "bcix", "netnod")
FAMILIES = (4, 6)
#: generator scale: ~2.3k routes per day over the six keys, a twentyfifth
#: of the CLI default (0.05); README.md compares the layer shares.
SCALE = 0.002


def _table_rows(store: Any, window: Optional[int]) -> List[Dict]:
    """Tables 3 (newest *window* days) or 4 (whole series): load each
    key's series from the store, then its variation rows."""
    from repro.core.stability import period_variation, weekly_variation
    rows: List[Dict] = []
    for ixp in IXPS:
        for family in FAMILIES:
            dates = store.snapshot_dates(ixp, family)
            if window is not None:
                dates = dates[-window:]
            series = [store.load_snapshot(ixp, family, d) for d in dates]
            rows.extend(weekly_variation(series) if window is not None
                        else period_variation(series))
    return rows


def _canonical(outputs: Tuple[str, List[Dict], List[Dict]]) -> List[str]:
    """The bundle text and Tables 3/4 rows as text, for comparing
    across processes."""
    bundle, table3, table4 = outputs
    return [bundle, json.dumps(table3, sort_keys=True),
            json.dumps(table4, sort_keys=True)]


def _differences(got: List[str], want: List[str]) -> List[str]:
    """The gate's comparison: one error per output that differs."""
    return [f"{name} differs from the in-memory study"
            for name, a, b in zip(("bundle", "table3", "table4"), got, want)
            if a != b]


class AnalyzeCold:
    name = "analyze-cold"
    obs_in_bench = True
    #: set in a traced unit process: Tables 3/4 then record a
    #: ``core.series`` span.
    tracer: Optional[Tracer] = None

    def __init__(self, scale: float = SCALE) -> None:
        self.scale = scale

    def setup(self, bench: Bench,
              trace_dir: Optional[Path] = None) -> Dict[str, Any]:
        from repro.collector import DatasetStore
        from repro.ixp import get_profile
        from repro.workload import ScenarioConfig, SnapshotGenerator
        from repro.workload.generator import final_week_days

        root = bench.workdir / "store-pristine"
        shutil.rmtree(root, ignore_errors=True)
        store = DatasetStore(root)
        config = ScenarioConfig(scale=self.scale, seed=bench.seed)
        series: Dict[Tuple[str, int], List[Any]] = {}
        dictionaries = {}
        for ixp in IXPS:
            generator = SnapshotGenerator(get_profile(ixp), config)
            dictionaries[ixp] = generator.dictionary
            store.save_dictionary(ixp, generator.dictionary)
            for family in FAMILIES:
                series[(ixp, family)] = []
                for day in final_week_days():
                    snapshot = generator.snapshot(family, day,
                                                  degraded=False)
                    store.save_snapshot(snapshot)
                    series[(ixp, family)].append(snapshot)
        latest = sum(len(s[-1].routes) for s in series.values())
        every = sum(len(x.routes) for s in series.values() for x in s)
        return {"root": root, "series": series,
                "dictionaries": dictionaries,
                "store_bytes": sum(p.stat().st_size
                                   for p in root.rglob("*.json.gz")),
                # from_store reads the newest day of each key; tables 3
                # and 4 each read the whole week.
                "routes_read": latest + 2 * every,
                "routes_stored": every}

    def teardown(self, state: Dict[str, Any]) -> None:
        shutil.rmtree(state["root"], ignore_errors=True)

    # -- measuring (in the unit process) ----------------------------------

    def analyze(self, store: Any) -> Tuple[str, List[Dict], List[Dict]]:
        """One cold analysis: the bundle text and Tables 3/4 rows."""
        from repro.core.engine import AggregateCache
        from repro.core.export import dumps_rows, study_rows
        from repro.core.pipeline import Study

        study = Study.from_store(store, IXPS, FAMILIES,
                                 cache=AggregateCache(store))
        bundle = dumps_rows(study_rows(study, FAMILIES))
        table_rows = (self.tracer.wrap("core.series", _table_rows)
                      if self.tracer else _table_rows)
        return bundle, table_rows(store, 7), table_rows(store, None)

    def units(self, context: Dict[str, Any],
              seconds: float) -> Dict[str, Any]:
        """Cold analyses, each of a fresh copy of the store, until
        *seconds* have passed; returns their times and the outputs of
        the last one."""
        from repro.collector import DatasetStore

        pristine = Path(context["root"])
        samples: List[Dict[str, float]] = []
        windows: List[Tuple[float, float]] = []
        outputs = None
        started = time.perf_counter()
        with Gauge() as gauge:
            while time.perf_counter() - started < seconds or not samples:
                root = pristine.with_name(f"analyze-{len(samples)}")
                shutil.copytree(pristine, root)
                store = DatasetStore(root)
                t0, cpu0 = time.perf_counter(), time.process_time()
                gauge0 = gauge.cpu_s
                outputs = self.analyze(store)
                cpu = (time.process_time() - cpu0) - (gauge.cpu_s - gauge0)
                elapsed = time.perf_counter() - t0
                samples.append({"elapsed": elapsed, "cpu": cpu})
                windows.append((t0, t0 + elapsed))
                shutil.rmtree(root)
        for sample in samples:
            sample["ref_cpu"] = gauge.reference_cpu_s(sample["cpu"])
        return {"samples": samples, "windows": windows,
                "outputs": _canonical(outputs)}

    # -- measuring (in the benchmark process) ------------------------------

    def measure(self, bench: Bench, state: Dict[str, Any], seconds: float,
                trace_dir: Optional[Path] = None) -> Dict[str, Any]:
        result = run_units(bench, self.name, {"root": str(state["root"])},
                           seconds, trace_dir)
        errors = self._gate(state, result["outputs"])
        return {"samples": result["samples"], "windows": result["windows"],
                "errors": errors, "routes_read": state["routes_read"],
                "store_bytes": state["store_bytes"],
                "routes_stored": state["routes_stored"],
                "rss_mb": result["rss_mb"]}

    def _gate(self, state: Dict[str, Any], outputs: List[str]) -> List[str]:
        """The bundle and Tables 3/4 rows equal those of a Study built
        in memory from the snapshots the set-up wrote; and the same
        comparison trips on a bundle with one byte changed."""
        from repro.core.export import dumps_rows, study_rows
        from repro.core.pipeline import Study
        from repro.core.stability import period_variation, weekly_variation

        series = state["series"]
        study = Study.from_snapshots(
            [s[-1] for s in series.values()], state["dictionaries"])
        expected = _canonical((
            dumps_rows(study_rows(study, FAMILIES)),
            [r for key in sorted(series, key=self._order)
             for r in weekly_variation(series[key][-7:])],
            [r for key in sorted(series, key=self._order)
             for r in period_variation(series[key])],
        ))
        errors = _differences(outputs, expected)
        bundle = outputs[0]
        tampered = bundle[:-2] + chr(ord(bundle[-2]) ^ 1) + bundle[-1:]
        if not _differences([tampered] + outputs[1:], expected):
            errors.append("self-check: a changed export byte passed "
                          "the gate")
        return errors

    @staticmethod
    def _order(key: Tuple[str, int]) -> Tuple[int, int]:
        return IXPS.index(key[0]), FAMILIES.index(key[1])

    # -- reporting --------------------------------------------------------

    def end_to_end(self, m: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
        return {
            "work_per_ref_cpu_s": (layers.median(
                [m["routes_read"] / s["ref_cpu"] for s in m["samples"]]),
                "1/ref-cpu-s"),
            "ok_share": (0.0 if m["errors"] else 1.0, "ratio"),
            "peak_rss_mb": (m["rss_mb"], "MB"),
            "store_bytes_per_route": (layers.ratio(
                m["store_bytes"], m["routes_stored"]), "bytes/route"),
        }

    def wall(self, m: Dict[str, Any]) -> Dict[str, float]:
        samples = m["samples"]
        return {"work_per_s": layers.median(
                    [m["routes_read"] / s["elapsed"] for s in samples]),
                "latency_p50_ms": 1000 * layers.median(
                    [s["elapsed"] for s in samples])}

    def named_metrics(self, m: Dict[str, Any],
                      e2e: Dict[str, Tuple[float, str]]) -> List[tuple]:
        basis = (f"median of {len(m['samples'])} analyses, "
                 f"{m['routes_read']} routes read each")
        return [
            ("analyze_routes_per_s", self.wall(m)["work_per_s"],
             "routes/s", f"{basis}; wall seconds: "
             + ", ".join(f"{s['elapsed']:.3f}" for s in m["samples"])),
            ("analyze_routes_per_ref_cpu_s", e2e["work_per_ref_cpu_s"][0],
             "routes/ref-cpu-s", f"{basis}; CPU seconds: "
             + ", ".join(f"{s['cpu']:.3f}" for s in m["samples"])
             + "; reference CPU seconds: "
             + ", ".join(f"{s['ref_cpu']:.3f}" for s in m["samples"])),
        ]

    def attempts(self, m: Dict[str, Any]) -> Tuple[int, int]:
        return len(m["samples"]), len(m["samples"]) if m["errors"] else 0

    def layer_metrics(self, bench: Bench, m: Dict[str, Any],
                      spans: List[tuple], obs: List[Dict[str, Any]],
                      pools: List[List[int]]) -> Dict[str, float]:
        window = layers.in_window(spans, m["windows"])
        units = len(m["samples"])
        hits = layers.obs_value(obs, "repro_analysis_cache_events_total",
                                event="hit")
        probes = layers.obs_value(obs, "repro_analysis_cache_events_total")
        bench.say(f"[{self.name}] repro.obs aggregate-cache events: "
                  f"{hits:.0f} hits of {probes:.0f} probes")
        return {
            "bgp.route_from_dict_s":
                layers.total(window, "bgp.route_from_dict") / units,
            "bgp.parses_per_route": layers.ratio(
                layers.calls(window, "bgp.route_from_dict"),
                m["routes_read"] * units),
            "collector.verified_read_s":
                layers.total(window, "collector.verified_read") / units,
            "io.columnar.decode_s": layers.codec_total(
                window, "io.decode", "columnar") / units,
            "io.columnar.encode_s": layers.codec_total(
                window, "io.encode", "columnar") / units,
            "core.aggregate_s":
                layers.total(window, "core.aggregate") / units,
            "core.distinct_sets_ratio": layers.tag_ratio(
                window, "core.aggregate"),
            "core.engine.cache_hit_ratio": layers.ratio(
                layers.tag_sum(window, "core.engine.probe"),
                layers.calls(window, "core.engine.probe")),
            "core.series_s": layers.total(window, "core.series") / units,
            "core.export_s": layers.outer_total(
                window, ("core.export.study_rows",
                         "core.export.dumps_rows")) / units,
        }
