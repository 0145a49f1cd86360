"""``collect-day``: one day's collection campaign, repeated.

The paper's daily scrape. A Looking Glass runs in its own process over
several IXP mounts (v4 and v6, DE-CIX Frankfurt v4 several times larger
than the rest), with a small delay on every response and a truncated
body every ``MALFORMED_EVERY``-th response. A unit process
(``unit_proc.py``) runs
:class:`repro.collector.campaign.CollectionCampaign` with the CLI's
default store settings (JSON codec, a checkpoint after every peer) on
the async engine with ``max_inflight`` = nproc, into a fresh store,
as many times as fit in the run; the benchmark process then checks
every store against the route servers' ground truth.

Loads ``lg``, ``net``, ``bgp`` parsing and the ``collector``
write/checkpoint path; ``core`` and ``query`` stay idle.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import layers
from common import COLLECT_DATE, Bench, Gauge, Helper, nproc, run_units

#: (ixp, family) mounts the Looking Glass serves.
MOUNTS: Tuple[Tuple[str, int], ...] = (
    ("decix-fra", 4), ("decix-fra", 6), ("bcix", 4), ("bcix", 6),
    ("netnod", 4))
#: generator scale: ~SCALE_ROUTES accepted routes over ~160 peers. The
#: peer count does not shrink with the scale (members have a floor),
#: so routes per peer, and with them the per-peer costs, are a fifth
#: of the CLI default's (0.05); README.md compares the layer shares.
SCALE = 0.01
#: server-side delay on every response, in seconds: small enough that
#: the collector's own CPU work sets the wall clock.
SLOW_DELAY = 0.001
#: every Nth response body is truncated mid-document.
MALFORMED_EVERY = 40


def _route_key(route: Any) -> str:
    return json.dumps(route.to_dict(), sort_keys=True)


class CollectDay:
    name = "collect-day"
    #: repro.obs stays off in the collecting process, as in the CLI's
    #: default campaign: enabled, it embeds a metrics snapshot in every
    #: checkpoint and so would change collector.checkpoint_bytes.
    obs_in_bench = False

    def __init__(self, scale: float = SCALE) -> None:
        self.scale = scale

    def setup(self, bench: Bench,
              trace_dir: Optional[Path] = None) -> Dict[str, Any]:
        from repro.ixp import get_profile
        from repro.workload import ScenarioConfig, SnapshotGenerator

        args = ["--seed", str(bench.seed), "--scale", str(self.scale),
                "--mounts", *[f"{ixp}:{family}" for ixp, family in MOUNTS],
                "--slow-delay", str(SLOW_DELAY),
                "--malformed-every", str(MALFORMED_EVERY)]
        if trace_dir is not None:
            args += ["--trace-out", str(trace_dir / "lg.json"),
                     "--run-id", bench.workload]
        helper = Helper(bench, "lg_proc.py", args, "lg")
        try:
            # ground truth: the same generator, same seed, in this
            # process (while the helper generates its copy).
            config = ScenarioConfig(scale=self.scale, seed=bench.seed)
            generators: Dict[str, Any] = {}
            truth: Dict[Tuple[str, int], List[str]] = {}
            for ixp, family in MOUNTS:
                if ixp not in generators:
                    generators[ixp] = SnapshotGenerator(get_profile(ixp),
                                                        config)
                server = generators[ixp].populated_route_server(family)
                truth[(ixp, family)] = sorted(
                    _route_key(route)
                    for session in server.peers() if session.established
                    for route in server.accepted_routes(session.asn))
            ready = helper.read_line(timeout=120)
            port = int(ready.split()[1])
        except BaseException:
            helper.stop()
            raise
        return {"helper": helper, "url": f"http://127.0.0.1:{port}",
                "truth": truth}

    def teardown(self, state: Dict[str, Any]) -> None:
        state["helper"].stop()

    # -- measuring (in the unit process) ------------------------------------

    def units(self, context: Dict[str, Any],
              seconds: float) -> Dict[str, Any]:
        """Campaigns into fresh stores until *seconds* have passed.
        The stores stay on disk for the gate."""
        from repro.collector import DatasetStore
        from repro.collector.campaign import (
            CampaignConfig,
            CampaignTarget,
            CollectionCampaign,
        )

        samples: List[Dict[str, Any]] = []
        windows: List[Tuple[float, float]] = []
        started = time.perf_counter()
        with Gauge() as gauge:
            while time.perf_counter() - started < seconds or not samples:
                root = Path(context["workdir"]) / f"collect-{len(samples)}"
                campaign = CollectionCampaign(
                    DatasetStore(root), CampaignConfig(
                        base_url=context["url"],
                        targets=[CampaignTarget(ixp=ixp, family=family)
                                 for ixp, family in MOUNTS],
                        captured_on=COLLECT_DATE,
                        io="async",
                        max_inflight=nproc(),
                        checkpoint_every=1))
                t0, cpu0 = time.perf_counter(), time.process_time()
                gauge0 = gauge.cpu_s
                report = campaign.run()
                cpu = (time.process_time() - cpu0) - (gauge.cpu_s - gauge0)
                elapsed = time.perf_counter() - t0
                windows.append((t0, t0 + elapsed))
                stats = [campaign.client_for(target).stats
                         for target in campaign.config.targets]
                samples.append({
                    "root": str(root),
                    "elapsed": elapsed,
                    "cpu": cpu,
                    "targets": [[t.ixp, t.family, t.status,
                                 str(Path(t.snapshot_path).relative_to(root))
                                 if t.snapshot_path else ""]
                                for t in report.targets],
                    "peers_attempted": sum(t.peers_attempted
                                           for t in report.targets),
                    "peers_failed": sum(len(t.failures)
                                        for t in report.targets),
                    "requests": sum(s.requests for s in stats),
                    "retries": sum(s.retries for s in stats),
                })
        for sample in samples:
            sample["ref_cpu"] = gauge.reference_cpu_s(sample["cpu"])
        return {"samples": samples, "windows": windows}

    # -- measuring (in the benchmark process) ------------------------------

    def measure(self, bench: Bench, state: Dict[str, Any], seconds: float,
                trace_dir: Optional[Path] = None) -> Dict[str, Any]:
        from repro.collector import DatasetStore

        result = run_units(bench, self.name,
                           {"url": state["url"],
                            "workdir": str(bench.workdir)},
                           seconds, trace_dir)
        samples = result["samples"]
        errors: List[str] = []
        for sample in samples:
            store = DatasetStore(Path(sample["root"]))
            sample.update(self._gate(store, sample["targets"],
                                     state["truth"], errors))
        errors += self._self_check(Path(samples[0]["root"]),
                                   samples[0]["targets"], state["truth"])
        for sample in samples:
            shutil.rmtree(sample["root"])
        return {"samples": samples, "errors": errors,
                "windows": result["windows"], "rss_mb": result["rss_mb"]}

    def _gate(self, store: Any, targets: List[list],
              truth: Dict[Tuple[str, int], List[str]],
              errors: List[str]) -> Dict[str, Any]:
        """Every snapshot holds exactly the route server's accepted
        routes, every target is complete, and fsck is clean. Returns
        the route and byte counts of the published snapshots."""
        from repro.collector.fsck import fsck_store

        routes = 0
        snapshot_bytes = 0
        for ixp, family, status, path in targets:
            key = (ixp, family)
            if status != "complete":
                errors.append(f"{key}: status {status}")
                continue
            snapshot = store.load_snapshot(ixp, family, COLLECT_DATE)
            collected = sorted(_route_key(r) for r in snapshot.routes)
            if collected != truth[key]:
                errors.append(f"{key}: {len(collected)} routes collected, "
                              f"{len(truth[key])} accepted by the RS")
            routes += len(snapshot.routes)
            snapshot_bytes += (store.root / path).stat().st_size
        if len(targets) != len(MOUNTS):
            errors.append(f"{len(targets)} of {len(MOUNTS)} targets "
                          f"reported")
        audit = fsck_store(store)
        if not audit.clean:
            errors.append(f"fsck: {audit.format_summary()}")
        return {"routes": routes, "snapshot_bytes": snapshot_bytes}

    def _self_check(self, root: Path, targets: List[list],
                    truth: Dict[Tuple[str, int], List[str]]) -> List[str]:
        """The gate must trip on a copy of a collected store whose
        largest snapshot lost one route (re-signed, so fsck stays
        clean)."""
        from repro.collector import DatasetStore

        copy = root.with_name(root.name + "-tampered")
        shutil.copytree(root, copy)
        try:
            store = DatasetStore(copy)
            snapshot = store.load_snapshot(*MOUNTS[0], COLLECT_DATE)
            store.save_snapshot(dataclasses.replace(
                snapshot, routes=snapshot.routes[1:]))
            tripped: List[str] = []
            self._gate(store, targets, truth, tripped)
        finally:
            shutil.rmtree(copy)
        if not any(e.startswith(f"{MOUNTS[0]}: ") and "routes collected" in e
                   for e in tripped):
            return ["self-check: a dropped route passed the gate"]
        return []

    # -- reporting --------------------------------------------------------

    def end_to_end(self, m: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
        samples = m["samples"]
        routes = sum(s["routes"] for s in samples)
        attempted = sum(s["peers_attempted"] for s in samples)
        failed = sum(s["peers_failed"] for s in samples)
        return {
            "work_per_ref_cpu_s": (layers.median(
                [s["routes"] / s["ref_cpu"] for s in samples]),
                "1/ref-cpu-s"),
            "ok_share": (1 - layers.ratio(failed, attempted), "ratio"),
            "peak_rss_mb": (m["rss_mb"], "MB"),
            "store_bytes_per_route": (layers.ratio(
                sum(s["snapshot_bytes"] for s in samples), routes),
                "bytes/route"),
        }

    def wall(self, m: Dict[str, Any]) -> Dict[str, float]:
        samples = m["samples"]
        return {"work_per_s": layers.median(
                    [s["routes"] / s["elapsed"] for s in samples]),
                "latency_p50_ms": 1000 * layers.median(
                    [s["elapsed"] for s in samples])}

    def named_metrics(self, m: Dict[str, Any],
                      e2e: Dict[str, Tuple[float, str]]) -> List[tuple]:
        samples = m["samples"]
        attempted = sum(s["peers_attempted"] for s in samples)
        failed = sum(s["peers_failed"] for s in samples)
        n = len(samples)
        basis = (f"median of {n} campaigns, {samples[0]['routes']} routes "
                 f"each")
        return [
            ("collect_routes_per_s", self.wall(m)["work_per_s"],
             "routes/s", f"{basis}; wall seconds: "
             + ", ".join(f"{s['elapsed']:.3f}" for s in samples)),
            ("collect_routes_per_ref_cpu_s", e2e["work_per_ref_cpu_s"][0],
             "routes/ref-cpu-s", f"{basis}; collector CPU seconds: "
             + ", ".join(f"{s['cpu']:.3f}" for s in samples)
             + "; reference CPU seconds: "
             + ", ".join(f"{s['ref_cpu']:.3f}" for s in samples)),
            ("collect_failed_share", layers.ratio(failed, attempted),
             "peers failed/attempted", f"{failed}/{attempted} peers"),
            ("store_bytes_per_route", e2e["store_bytes_per_route"][0],
             "bytes/route", f"{n} campaigns"),
        ]

    def attempts(self, m: Dict[str, Any]) -> Tuple[int, int]:
        samples = m["samples"]
        return (sum(s["peers_attempted"] for s in samples),
                sum(s["peers_failed"] for s in samples))

    def layer_metrics(self, bench: Bench, m: Dict[str, Any],
                      spans: List[tuple], obs: List[Dict[str, Any]],
                      pools: List[List[int]]) -> Dict[str, float]:
        window = layers.in_window(spans, m["windows"])
        samples = m["samples"]
        units = len(samples)
        routes = sum(s["routes"] for s in samples)
        requests = sum(s["requests"] for s in samples)
        pages = layers.calls(window, "lg.dialects.parse")
        opened = sum(p[0] for p in pools)
        reused = sum(p[1] for p in pools)
        snapshot_bytes = layers.tag_sum(window, "collector.snapshot_save")
        return {
            "lg.server.handle_s":
                layers.total(window, "lg.server.handle") / units,
            "lg.server.bytes_out":
                layers.tag_sum(window, "lg.server.handle", 1) / units,
            "lg.client.page_s": layers.ratio(
                layers.total(window, "lg.client.page"),
                layers.calls(window, "lg.client.page")),
            "lg.client.requests": requests / units,
            "lg.client.retries":
                sum(s["retries"] for s in samples) / units,
            "lg.client.useful_ratio": layers.ratio(pages, requests),
            "lg.dialects.parse_s":
                layers.total(window, "lg.dialects.parse") / units,
            "bgp.route_from_dict_s":
                layers.total(window, "bgp.route_from_dict") / units,
            "bgp.parses_per_route": layers.ratio(
                layers.calls(window, "bgp.route_from_dict"), routes),
            "net.aio.connections_opened": opened / units,
            "net.aio.reuse_ratio": layers.ratio(reused, opened + reused),
            "collector.checkpoint_s":
                layers.total(window, "collector.checkpoint") / units,
            "collector.checkpoint_bytes":
                layers.tag_sum(window, "collector.checkpoint") / units,
            "collector.write_amplification": layers.ratio(
                layers.tag_sum(window, "collector.write", 1),
                snapshot_bytes),
            "collector.snapshot_save_s":
                layers.total(window, "collector.snapshot_save") / units,
            "collector.fsyncs":
                layers.tag_sum(window, "collector.write") / units,
            "collector.verified_read_s":
                layers.total(window, "collector.verified_read") / units,
        }
