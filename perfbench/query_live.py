"""``query-live``: the query API under an open loop with writes.

``repro-study api`` runs in its own process with its default worker
count over a columnar store (the last ``DAYS`` days of BCIX, both
families). One load generator (this process) sends an open loop at
``RATE`` operations per second over at most nproc concurrent
connections; each operation is due at a fixed time and its latency
counts from then, so a stall also delays the operations behind it.

Reads cover every route: tables 1-4, figures, per-key aggregates, IXPs,
keys and the export; ``REVALIDATE_SHARE`` of them revalidate with
``If-None-Match``. Every ``WRITE_EVERY``-th operation is a write: it
publishes the next day's snapshot (generated in set-up) for one key,
which moves the dataset fingerprint and so forces aggregate and series
rebuilds. This uses the store and the aggregate cache the other way
round from ``analyze-cold``: warm hits, with writes beside reads.

Each write makes every worker re-read the whole series for Tables 3
and 4 under its service lock, so a stall queues the reads behind it.
The bounded end-to-end figure is reads answered per reference CPU
second of the API processes, rebuilds included; the loop's wall-clock latencies are
printed and reported by the traced run (see README.md for why).

The operation mix (``REVALIDATE_SHARE``, a uniform choice of read
path, ``WRITE_EVERY``) is not drawn from a measured trace of the
API's users: it is set so that rebuilds are a visible minority of the
server's CPU time, as the benchmark's design asks.
"""

from __future__ import annotations

import hashlib
import http.client
import random
import shutil
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import layers
from common import (
    Bench,
    Gauge,
    Helper,
    free_port,
    nproc,
    process_tree,
    tree_cpu_s,
    vm_hwm_mb,
    wait_http,
)

IXPS = ("bcix",)
FAMILIES = (4, 6)
#: generator scale: ~540 (v4) and ~250 (v6) routes per snapshot, a
#: tenth of the CLI default (0.05). A columnar read then costs ~2.3 ms
#: fixed plus ~15 us per route, so the fixed part is under a fifth.
SCALE = 0.005
#: days of each key in the store before the first write.
DAYS = 7
#: offered load, operations per second (reads and writes). At 440/s
#: the load generator (one process) fell behind on a 2-vCPU host.
RATE = 200.0
#: every Nth scheduled operation, the first included, is a write: two
#: writes in a 15 s run, whose rebuilds take about a third of the API
#: processes' CPU time.
WRITE_EVERY = 1500
#: warm-up rounds over every read path, each read on a fresh
#: connection: the kernel spreads connections over the pre-fork
#: workers at random, and after 16 rounds a (worker, path) pair is
#: left cold with odds of 2**-16, so no worker builds its first bodies
#: inside the measured loop.
WARM_ROUNDS = 16
#: share of reads sent with If-None-Match (when an ETag is known).
REVALIDATE_SHARE = 0.3
#: latency limit of a read, counted from its scheduled send time.
LATENCY_LIMIT_MS = 1000.0
#: a read not answered within this many seconds has failed.
TIMEOUT_S = 10.0
#: concurrent connections of the load generator, at most nproc. Each
#: read opens its own connection. Over keep-alive connections the
#: median flipped between ~5 and ~44 ms from run to run (the server's
#: Nagle against the client's delayed ACK, which depends on request
#: spacing), and SO_REUSEPORT pinned each connection to one pre-fork
#: worker for the whole run. The keep-alive cost is measured on its
#: own, back to back, by ``KEEPALIVE_PROBE`` reads after the loop.
MAX_CONNECTIONS = 4
#: back-to-back reads of one cached route on one keep-alive connection.
KEEPALIVE_PROBE = 30


def read_paths() -> List[str]:
    from repro.core.export import artefact_names
    paths = ["/v1/tables", "/v1/tables/1", "/v1/tables/2", "/v1/tables/3",
             "/v1/tables/4", "/v1/figures", "/v1/ixps", "/v1/keys",
             "/v1/export"]
    paths += [f"/v1/figures/{name}" for name in artefact_names()
              if name.startswith("fig")]
    paths += [f"/v1/ixps/{ixp}/v{family}/aggregate"
              for ixp in IXPS for family in FAMILIES]
    return paths


def _export_errors(served: bytes, expected: bytes) -> List[str]:
    """The export gate's comparison."""
    if served != expected:
        return ["final /v1/export differs from export_study_json"]
    return []


class QueryLive:
    name = "query-live"
    obs_in_bench = False

    def __init__(self, scale: float = SCALE) -> None:
        self.scale = scale

    def setup(self, bench: Bench,
              trace_dir: Optional[Path] = None) -> Dict[str, Any]:
        from repro.collector import DatasetStore
        from repro.ixp import get_profile
        from repro.workload import ScenarioConfig, SnapshotGenerator
        from repro.workload.generator import STUDY_DAYS

        root = bench.workdir / "store"
        shutil.rmtree(root, ignore_errors=True)
        store = DatasetStore(root, snapshot_codec="columnar")
        config = ScenarioConfig(scale=self.scale, seed=bench.seed)
        generators = {}
        stored_bytes = stored_routes = 0
        for ixp in IXPS:
            generators[ixp] = SnapshotGenerator(get_profile(ixp), config)
            store.save_dictionary(ixp, generators[ixp].dictionary)
            for family in FAMILIES:
                for day in range(STUDY_DAYS - DAYS, STUDY_DAYS):
                    snapshot = generators[ixp].snapshot(family, day,
                                                        degraded=False)
                    stored_bytes += store.save_snapshot(
                        snapshot).stat().st_size
                    stored_routes += len(snapshot.routes)
        # the writes: next days, round-robin over the keys.
        keys = [(ixp, family) for ixp in IXPS for family in FAMILIES]
        count = int(RATE * bench.seconds) // WRITE_EVERY + 1
        writes = [generators[keys[i % len(keys)][0]].snapshot(
                      keys[i % len(keys)][1],
                      STUDY_DAYS + i // len(keys), degraded=False)
                  for i in range(count)]

        port = free_port()
        args = []
        if trace_dir is not None:
            args += ["--trace-dir", str(trace_dir), "--run-id",
                     bench.workload]
        args += ["--", "api", "--store", str(root), "--port", str(port)]
        helper = Helper(bench, "api_proc.py", args, "api")
        url = f"http://127.0.0.1:{port}"
        try:
            wait_http(url + "/healthz", timeout=60)
            self._warm_up(url)
        except BaseException:
            helper.stop()
            raise
        return {"helper": helper, "url": url, "port": port, "root": root,
                "writes": writes, "store_bytes": stored_bytes,
                "store_routes": stored_routes}

    @staticmethod
    def _warm_up(url: str) -> None:
        """Every read path ``WARM_ROUNDS`` times, each on a fresh
        connection."""
        import urllib.request
        for _round in range(WARM_ROUNDS):
            for path in read_paths():
                with urllib.request.urlopen(url + path, timeout=60) as r:
                    r.read()

    def teardown(self, state: Dict[str, Any]) -> None:
        state["helper"].stop()
        shutil.rmtree(state["root"], ignore_errors=True)

    # -- measuring --------------------------------------------------------

    def measure(self, bench: Bench, state: Dict[str, Any], seconds: float,
                trace_dir: Optional[Path] = None) -> Dict[str, Any]:
        from repro.collector import DatasetStore
        from repro.query.router import Router
        from repro.query.views import QueryService

        store = DatasetStore(state["root"], snapshot_codec="columnar")
        paths = read_paths()
        router = Router()
        oracle = QueryService(DatasetStore(state["root"]))

        def current_etags() -> Dict[str, str]:
            """Each read path's ETag for the store as it is now: the
            service answers ``If-None-Match: *`` with a 304 carrying
            the current ETag, without building a body."""
            etags = {}
            for path in paths:
                match = router.match(path)
                etags[path] = oracle.respond(match.name, match.params,
                                             if_none_match="*").etag
            return etags

        rng = random.Random(bench.seed)
        total = int(RATE * seconds)
        reads: List[Tuple[float, str, bool]] = []
        write_due: List[float] = []
        start = time.perf_counter() + 0.1
        for index in range(total):
            due = start + index / RATE
            if index % WRITE_EVERY == 0:
                write_due.append(due)
            else:
                reads.append((due, rng.choice(paths),
                              rng.random() < REVALIDATE_SHARE))

        versions: List[Dict[str, str]] = [current_etags()]
        lock = threading.Lock()
        shared = {"next": 0, "started": 0, "completed": 0}
        last_etag: Dict[str, str] = {}
        records: List[Dict[str, Any]] = []
        write_records: List[Dict[str, Any]] = []

        def connect() -> http.client.HTTPConnection:
            return http.client.HTTPConnection("127.0.0.1", state["port"],
                                              timeout=TIMEOUT_S)

        def writer() -> None:
            """Publishes the pre-generated snapshots at their due
            times, on its own thread so no connection waits for it."""
            for due, snapshot in zip(write_due, state["writes"]):
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                shared["started"] += 1
                sent = time.perf_counter()
                ok, size = True, 0
                try:
                    size = store.save_snapshot(snapshot).stat().st_size
                except Exception as error:  # noqa: BLE001 — reported
                    ok = False
                    bench.say(f"[{self.name}] write failed: {error!r}")
                versions.append(current_etags())
                shared["completed"] += 1
                write_records.append({"due": due, "sent": sent,
                                      "done": time.perf_counter(),
                                      "ok": ok, "bytes": size,
                                      "routes": len(snapshot.routes)})

        def reader() -> None:
            while True:
                with lock:
                    index = shared["next"]
                    shared["next"] += 1
                if index >= len(reads):
                    return
                due, path, revalidate = reads[index]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                headers = {}
                sent_etag = last_etag.get(path) if revalidate else None
                if sent_etag:
                    headers["If-None-Match"] = f'"{sent_etag}"'
                low = shared["completed"]
                sent = time.perf_counter()
                status: Optional[int] = None
                etag = digest = None
                conn = connect()
                try:
                    conn.request("GET", path, headers=headers)
                    response = conn.getresponse()
                    body = response.read()
                    status = response.status
                    etag = (response.getheader("ETag") or "").strip('"')
                    digest = hashlib.sha256(body).hexdigest()
                except (OSError, http.client.HTTPException):
                    pass
                finally:
                    conn.close()
                done = time.perf_counter()
                if status == 200 and etag:
                    last_etag[path] = etag
                records.append({
                    "path": path, "status": status, "etag": etag,
                    "sent_etag": sent_etag, "digest": digest,
                    "due": due, "sent": sent, "done": done,
                    "versions": (low, shared["started"])})

        threads = [threading.Thread(target=reader, name=f"reader-{i}")
                   for i in range(max(1, min(nproc(), MAX_CONNECTIONS)))]
        threads.append(threading.Thread(target=writer, name="writer"))
        server = state["helper"].proc.pid
        with Gauge() as gauge:
            cpu0 = tree_cpu_s(server)
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            loop_end = time.perf_counter()
            server_cpu = tree_cpu_s(server) - cpu0
        probe = self._keepalive_probe(state["port"])
        errors = self._check_etags(records, versions)
        errors += self._check_export(state, store)
        return {"records": records, "writes": write_records,
                "errors": errors, "windows": [(start, loop_end)],
                "probe": probe, "loop_s": loop_end - start,
                "server_cpu": server_cpu,
                "server_ref_cpu": gauge.reference_cpu_s(server_cpu),
                "store_bytes": state["store_bytes"],
                "store_routes": state["store_routes"],
                "rss_mb": max(vm_hwm_mb(pid) for pid in process_tree(
                    state["helper"].proc.pid))}

    @staticmethod
    def _keepalive_probe(port: int) -> Dict[str, Any]:
        """``KEEPALIVE_PROBE`` back-to-back reads of a cached route on
        one keep-alive connection: (window, client latencies in ms)."""
        conn = http.client.HTTPConnection("127.0.0.1", port,
                                          timeout=TIMEOUT_S)
        latencies = []
        started = time.perf_counter()
        try:
            for _ in range(KEEPALIVE_PROBE):
                sent = time.perf_counter()
                conn.request("GET", "/v1/tables")
                conn.getresponse().read()
                latencies.append((time.perf_counter() - sent) * 1000)
        finally:
            conn.close()
        return {"window": (started, time.perf_counter()),
                "latencies_ms": latencies}

    # -- gates ------------------------------------------------------------

    @staticmethod
    def _etag_violations(records: List[Dict[str, Any]],
                         versions: List[Dict[str, str]],
                         ) -> List[Tuple[int, str]]:
        """``(record index, reason)`` for each read that broke the ETag
        contract: one ETag, one body; a 200 carries an ETag that was
        current while it was served; a 304 answers only such an ETag.

        A read's possible dataset versions run from the writes
        completed when it was sent to the writes started when it came
        back; ``versions[v]`` holds every path's ETag after v writes.
        """
        violations = []
        bodies: Dict[str, str] = {}
        for index, record in enumerate(records):
            low, high = record["versions"]
            current = {versions[v][record["path"]]
                       for v in range(low, min(high, len(versions) - 1)
                                      + 1)}
            if record["status"] == 200:
                first = bodies.setdefault(record["etag"], record["digest"])
                if first != record["digest"]:
                    violations.append((index, f"{record['path']}: one "
                                       f"ETag served two bodies"))
                elif record["etag"] not in current:
                    violations.append((index, f"{record['path']}: 200 "
                                       f"with a stale ETag"))
            elif record["status"] == 304 \
                    and record["sent_etag"] not in current:
                violations.append((index, f"{record['path']}: 304 for a "
                                   f"stale ETag"))
        return violations

    def _check_etags(self, records: List[Dict[str, Any]],
                     versions: List[Dict[str, str]]) -> List[str]:
        violations = self._etag_violations(records, versions)
        for index, _reason in violations:
            records[index]["wrong"] = True
        errors = [reason for _index, reason in violations]
        answered = [r for r in records if r["status"] == 200]
        if answered:
            forged = dict(answered[0], digest="0" * 64)
            flagged = self._etag_violations(answered + [forged], versions)
            if not any(i == len(answered) for i, _reason in flagged):
                errors.append("self-check: a second body for one ETag "
                              "passed the gate")
        return errors

    def _check_export(self, state: Dict[str, Any], store: Any) -> List[str]:
        """The final ``/v1/export`` equals ``export_study_json`` over
        the final store."""
        import urllib.request
        from repro.core.export import export_study_json
        from repro.core.pipeline import Study

        with urllib.request.urlopen(state["url"] + "/v1/export",
                                    timeout=60) as response:
            served = response.read()
        study = Study.from_store(store, store.ixps(), FAMILIES)
        path = export_study_json(study, Path(state["root"]).parent
                                 / "export.json", FAMILIES)
        expected = path.read_bytes()
        errors = _export_errors(served, expected)
        tampered = served[:-1] + bytes([served[-1] ^ 1])
        if not _export_errors(tampered, expected):
            errors.append("self-check: a changed export byte passed the "
                          "gate")
        return errors

    # -- reporting --------------------------------------------------------

    @staticmethod
    def _outcomes(m: Dict[str, Any]) -> Dict[str, Any]:
        limit = LATENCY_LIMIT_MS / 1000.0
        reads = m["records"]
        latencies = []
        ok = refused = broken = 0
        for r in reads:
            answered = r["status"] in (200, 304) and not r.get("wrong")
            latency = r["done"] - r["due"] if answered else TIMEOUT_S
            latencies.append(latency * 1000)
            if r["status"] in (429, 503):
                refused += 1
            elif not answered:
                broken += 1
            elif latency <= limit:
                ok += 1
        return {"reads": len(reads), "ok": ok, "refused": refused,
                "broken": broken, "latencies_ms": latencies,
                "late_ms": [(r["sent"] - r["due"]) * 1000 for r in reads]}

    def end_to_end(self, m: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
        o = self._outcomes(m)
        written = [w for w in m["writes"] if w["ok"]]
        return {
            "work_per_ref_cpu_s": (layers.ratio(o["ok"],
                                                m["server_ref_cpu"]),
                                   "1/ref-cpu-s"),
            "ok_share": (layers.ratio(o["ok"], o["reads"]), "ratio"),
            "peak_rss_mb": (m["rss_mb"], "MB"),
            "store_bytes_per_route": (layers.ratio(
                m["store_bytes"] + sum(w["bytes"] for w in written),
                m["store_routes"] + sum(w["routes"] for w in written)),
                "bytes/route"),
        }

    def wall(self, m: Dict[str, Any]) -> Dict[str, float]:
        """Wall-clock figures. ``work_per_s`` is the offered rate met
        (reads answered ok per second of the loop): the loop is open at
        a fixed rate, so it cannot show a faster server."""
        o = self._outcomes(m)
        return {"work_per_s": o["ok"] / m["loop_s"],
                "latency_p50_ms": layers.median(o["latencies_ms"]),
                "latency_p99_ms": layers.percentile(o["latencies_ms"], 99)}

    def named_metrics(self, m: Dict[str, Any],
                      e2e: Dict[str, Tuple[float, str]]) -> List[tuple]:
        o = self._outcomes(m)
        wall = self.wall(m)
        late = o["late_ms"]
        basis = (f"{o['reads']} reads, {len(m['writes'])} writes at "
                 f"{RATE:g}/s")
        return [
            ("query_p50_ms", wall["latency_p50_ms"], "ms", basis),
            ("query_p99_ms", wall["latency_p99_ms"], "ms",
             f"{basis}; {o['reads'] // 100} reads beyond it"),
            ("query_ok_share", e2e["ok_share"][0],
             f"answered ok within {LATENCY_LIMIT_MS:g} ms",
             f"{o['ok']}/{o['reads']}; refused {o['refused']}, "
             f"failed or wrong {o['broken']}"),
            ("query_reads_per_server_ref_cpu_s",
             e2e["work_per_ref_cpu_s"][0], "reads/ref-cpu-s",
             f"{o['ok']} reads ok; the API processes used "
             f"{m['server_cpu']:.2f} CPU seconds in the loop, "
             f"{m['server_ref_cpu']:.2f} reference CPU seconds"),
            ("query_keepalive_ms",
             layers.median(m["probe"]["latencies_ms"]), "ms",
             f"median of {KEEPALIVE_PROBE} back-to-back keep-alive reads"),
            ("loadgen_late_ms", layers.percentile(late, 99), "ms p99",
             f"median {layers.median(late):.3f} ms, max {max(late):.3f} "
             f"ms over {len(late)} reads"),
        ]

    def attempts(self, m: Dict[str, Any]) -> Tuple[int, int]:
        o = self._outcomes(m)
        failed_writes = sum(1 for w in m["writes"] if not w["ok"])
        return (o["reads"] + len(m["writes"]),
                o["refused"] + o["broken"] + failed_writes)

    def layer_metrics(self, bench: Bench, m: Dict[str, Any],
                      spans: List[tuple], obs: List[Dict[str, Any]],
                      pools: List[Any]) -> Dict[str, float]:
        window = layers.in_window(spans, m["windows"])
        o = self._outcomes(m)
        responds = [s for s in window if s[0] == "query.respond"]
        miss_ids = {s[3] for s in responds if s[5].endswith(":miss")}
        hit = sum(1 for s in responds if s[5].endswith(":hit"))
        series_ids = {s[3] for s in responds
                      if s[5].startswith(("table:3:", "table:4:"))}
        probed = [s[2] - s[1] for s in layers.in_window(
            spans, [m["probe"]["window"]]) if s[0] == "query.respond"]
        not_modified = sum(1 for r in m["records"] if r["status"] == 304)
        decoded = layers.tag_sum(window, "io.decode", 1, "columnar/")
        for name in ("repro_query_study_rebuilds_total",
                     "repro_query_aggregate_builds_total",
                     "repro_query_shed_total",
                     "repro_analysis_cache_events_total"):
            bench.say(f"[{self.name}] repro.obs {name} = "
                      f"{layers.obs_value(obs, name):.0f} "
                      f"(workers' lifetime, warm-up included)")
        return {
            "bgp.route_from_dict_s":
                layers.total(window, "bgp.route_from_dict"),
            "bgp.parses_per_route": layers.ratio(
                layers.calls(window, "bgp.route_from_dict"), decoded),
            "collector.snapshot_save_s":
                layers.total(window, "collector.snapshot_save"),
            "collector.fsyncs": layers.tag_sum(window, "collector.write"),
            "collector.verified_read_s":
                layers.total(window, "collector.verified_read"),
            "io.columnar.decode_s":
                layers.codec_total(window, "io.decode", "columnar"),
            "io.columnar.encode_s":
                layers.codec_total(window, "io.encode", "columnar"),
            "core.aggregate_s": layers.total(window, "core.aggregate"),
            "core.distinct_sets_ratio": layers.tag_ratio(
                window, "core.aggregate"),
            "core.engine.cache_hit_ratio": layers.ratio(
                layers.tag_sum(window, "core.engine.probe"),
                layers.calls(window, "core.engine.probe")),
            "core.series_s": layers.child_total(
                window, series_ids, ("collector.verified_read",
                                     "core.variation")),
            "core.export_s": layers.outer_total(
                window, ("core.export.study_rows",
                         "core.export.dumps_rows")),
            "query.respond_s": layers.total(window, "query.respond"),
            "query.fingerprint_s": layers.total(window,
                                                "query.fingerprint"),
            "query.build_s": sum(s[2] - s[1] for s in responds
                                 if s[3] in miss_ids)
            - layers.child_total(window, miss_ids, ("query.fingerprint",)),
            "query.cache_hit_ratio": layers.ratio(hit, hit + len(miss_ids)),
            "query.not_modified_share": layers.ratio(not_modified,
                                                     o["reads"]),
            "query.http_overhead_ms":
                layers.median(m["probe"]["latencies_ms"])
                - 1000 * layers.median(probed),
            "query.study_rebuilds": layers.calls(
                window, "core.study_from_store"),
            "query.aggregate_builds": layers.calls(window,
                                                   "core.aggregate"),
            "query.shed": o["refused"],
            "loadgen.late_p99_ms": layers.percentile(o["late_ms"], 99),
        }
