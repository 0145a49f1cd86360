"""Collection engine speedup: the async engine vs the serial
single-connection discipline.

Drives full campaigns over the simulated LG with every response
stalled by a scheduled slow fault — the regime concurrent collection
exists for, where wall clock is dominated by waiting on the LG rather
than by local work (the paper's LGs answered big route tables over the
open internet; §3's twelve-week collection was latency-bound).

Asserts that ``io="async", max_inflight=8`` collects the same mount at
least 3x faster than serial while writing a byte-identical snapshot
file.

Timing uses best-of-N round minima, the standard way to cut scheduler
noise out of a throughput comparison.
"""

from __future__ import annotations

import time

from repro.collector import DatasetStore
from repro.collector.campaign import (
    CampaignConfig,
    CampaignTarget,
    CollectionCampaign,
)
from repro.ixp import get_profile
from repro.lg import FaultSchedule, LookingGlassServer
from repro.workload import ScenarioConfig, SnapshotGenerator

from conftest import emit

DATE = "2021-10-04"
ROUNDS = 3
SLOW_DELAY = 0.08     # every LG response stalls 80ms
SPEEDUP_FLOOR = 3.0   # acceptance: async at least 3x serial
ASYNC = {"io": "async", "max_inflight": 8}


def run_campaign(url, root, **engine):
    store = DatasetStore(root)
    config = CampaignConfig(
        base_url=url,
        targets=[CampaignTarget(ixp="bcix", family=4)],
        captured_on=DATE,
        checkpoint_every=16,
        **engine)
    started = time.perf_counter()
    report = CollectionCampaign(store, config).run()
    elapsed = time.perf_counter() - started
    assert report.complete
    return elapsed, store, report


def test_async_speedup(tmp_path):
    # a small mount keeps local JSON work subordinate to the injected
    # network latency the async engine exists to overlap
    generator = SnapshotGenerator(get_profile("bcix"),
                                  ScenarioConfig(scale=0.012, seed=5))
    server = LookingGlassServer(
        {("bcix", 4): generator.populated_route_server(4)},
        rate_per_second=1_000_000, burst=1_000_000,
        faults=FaultSchedule(slow_every=1, slow_delay=SLOW_DELAY))

    serial = fanned = float("inf")
    with server.serve() as url:
        for round_index in range(ROUNDS):
            cost, serial_store, report = run_campaign(
                url, tmp_path / f"serial{round_index}")
            serial = min(serial, cost)
            cost, async_store, _report = run_campaign(
                url, tmp_path / f"async{round_index}", **ASYNC)
            fanned = min(fanned, cost)

    serial_bytes = serial_store._snapshot_path(
        "bcix", 4, DATE).read_bytes()
    async_bytes = async_store._snapshot_path(
        "bcix", 4, DATE).read_bytes()
    speedup = serial / fanned
    emit("collection engine — async speedup",
         f"peers:            {report.targets[0].peers_collected}\n"
         f"per-response lag: {SLOW_DELAY * 1e3:.0f} ms\n"
         f"serial:           {serial:8.3f} s\n"
         f"async (in=8):     {fanned:8.3f} s\n"
         f"speedup:          {speedup:8.2f}x\n"
         f"byte-identical:   {async_bytes == serial_bytes}")
    assert async_bytes == serial_bytes, \
        "async engine changed the snapshot bytes"
    assert speedup >= SPEEDUP_FLOOR, (
        f"async only {speedup:.2f}x faster than serial "
        f"(floor {SPEEDUP_FLOOR}x)")
