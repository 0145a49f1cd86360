"""Analysis engine speedups: parallel aggregation and the warm
aggregate cache, with output identity asserted alongside the timings.

Two regimes, mirroring the collection bench's method (best-of-N round
minima; identity checked on the exported row bundle):

* **parallel** — every snapshot read is stalled by a fixed delay
  (I/O-latency regime: a store on cold spinning disk or network
  storage), so ``jobs=4`` can overlap four reads the way the worker
  pool overlaps LG responses. Asserts >= 3x over serial with a
  byte-identical export bundle.
* **warm cache** — an unstalled store analysed twice with the
  aggregate cache. The second pass serves every key from cached
  counters via two manifest lookups, skipping snapshot loading and
  aggregation entirely. Asserts >= 10x over the cold pass, again
  byte-identical.

Results are also written to ``BENCH_analysis.json`` at the repo root
for CI to archive.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.collector import DatasetStore
from repro.core import Study
from repro.core.engine import AggregateCache
from repro.core.export import study_rows
from repro.ixp import LARGE_FOUR, get_profile
from repro.workload import ScenarioConfig, SnapshotGenerator

from conftest import emit

ROUNDS = 2
STALL_DELAY = 2.5          # per-snapshot-read stall, parallel regime
PARALLEL_FLOOR = 3.0       # acceptance: jobs=4 at least 3x serial
WARM_FLOOR = 10.0          # acceptance: warm cache at least 10x cold
STALL_SCALE = 0.005        # tiny routes: latency must dominate CPU
WARM_SCALE = 0.015
BENCH_OUT = Path(__file__).resolve().parent.parent / "BENCH_analysis.json"


class StallingStore(DatasetStore):
    """A DatasetStore whose snapshot reads stall like cold remote
    storage. Forked engine workers inherit this instance, stall
    included, so every mode pays the same per-read tax."""

    def read_snapshot(self, ixp, family, date, *, heal=True):
        time.sleep(STALL_DELAY)
        return super().read_snapshot(ixp, family, date, heal=heal)


class CountingStore(DatasetStore):
    """A DatasetStore that counts its snapshot reads: the witness that
    a warm analyze reads no route data."""

    reads = 0

    def read_snapshot(self, *args, **kwargs):
        self.reads += 1
        return super().read_snapshot(*args, **kwargs)


def build_store(root, store_cls, scale):
    store = store_cls(root)
    for ixp in LARGE_FOUR:
        generator = SnapshotGenerator(get_profile(ixp),
                                      ScenarioConfig(scale=scale,
                                                     seed=20211004))
        store.save_dictionary(ixp, generator.dictionary)
        for family in (4, 6):
            store.save_snapshot(generator.snapshot(family,
                                                   degraded=False))
    return store


def bundle_bytes(study):
    return json.dumps(study_rows(study), sort_keys=True).encode()


def timed_analysis(store, jobs, cache=None):
    started = time.perf_counter()
    study = Study.from_store(store, ixps=LARGE_FOUR, jobs=jobs,
                             cache=cache)
    study.aggregates()
    elapsed = time.perf_counter() - started
    return elapsed, study


def record(results, name, **fields):
    results[name] = fields


def test_parallel_aggregation_speedup(tmp_path):
    store = build_store(tmp_path / "stalled", StallingStore,
                        STALL_SCALE)
    serial = pooled = float("inf")
    serial_bundle = pooled_bundle = None
    for _round in range(ROUNDS):
        cost, study = timed_analysis(store, jobs=1)
        if cost < serial:
            serial = cost
        serial_bundle = serial_bundle or bundle_bytes(study)
        cost, study = timed_analysis(store, jobs=4)
        if cost < pooled:
            pooled = cost
        pooled_bundle = pooled_bundle or bundle_bytes(study)

    speedup = serial / pooled
    emit("analysis engine — parallel aggregation speedup",
         f"keys:            {len(LARGE_FOUR) * 2}\n"
         f"per-read stall:  {STALL_DELAY * 1e3:.0f} ms\n"
         f"serial (j=1):    {serial:8.3f} s\n"
         f"pooled (j=4):    {pooled:8.3f} s\n"
         f"speedup:         {speedup:8.2f}x\n"
         f"byte-identical:  {pooled_bundle == serial_bundle}")
    _merge_bench("parallel", serial_s=round(serial, 3),
                 pooled_s=round(pooled, 3),
                 speedup=round(speedup, 2),
                 floor=PARALLEL_FLOOR,
                 identical=pooled_bundle == serial_bundle)
    assert pooled_bundle == serial_bundle, \
        "parallel aggregation changed the exported rows"
    assert speedup >= PARALLEL_FLOOR, (
        f"jobs=4 only {speedup:.2f}x faster than serial "
        f"(floor {PARALLEL_FLOOR}x)")


def test_warm_cache_speedup(tmp_path):
    store = build_store(tmp_path / "plain", CountingStore, WARM_SCALE)
    cold, study = timed_analysis(store, jobs=1,
                                 cache=AggregateCache(store))
    cold_bundle = bundle_bytes(study)
    assert store.reads == len(LARGE_FOUR) * 2
    warm = float("inf")
    warm_bundle = None
    for _round in range(ROUNDS + 1):
        store.reads = 0
        cost, study = timed_analysis(store, jobs=1,
                                     cache=AggregateCache(store))
        bundle = bundle_bytes(study)
        assert store.reads == 0, \
            "warm analyze should not load route data"
        warm = min(warm, cost)
        warm_bundle = warm_bundle or bundle

    speedup = cold / warm
    emit("analysis engine — warm aggregate cache",
         f"keys:            {len(LARGE_FOUR) * 2}\n"
         f"cold (compute):  {cold:8.3f} s\n"
         f"warm (cache):    {warm:8.3f} s\n"
         f"speedup:         {speedup:8.2f}x\n"
         f"byte-identical:  {warm_bundle == cold_bundle}")
    _merge_bench("warm_cache", cold_s=round(cold, 3),
                 warm_s=round(warm, 3), speedup=round(speedup, 2),
                 floor=WARM_FLOOR,
                 identical=warm_bundle == cold_bundle)
    assert warm_bundle == cold_bundle, \
        "the aggregate cache changed the exported rows"
    assert speedup >= WARM_FLOOR, (
        f"warm cache only {speedup:.2f}x faster than cold "
        f"(floor {WARM_FLOOR}x)")


def _merge_bench(name, **fields):
    payload = {}
    if BENCH_OUT.exists():
        try:
            payload = json.loads(BENCH_OUT.read_text())
        except ValueError:
            payload = {}
    payload[name] = fields
    BENCH_OUT.write_text(json.dumps(payload, indent=1, sort_keys=True)
                         + "\n")
