"""Async LG collection at high fan-out against a slow Looking Glass.

Over real HTTP against the simulated LG with a
``FaultSchedule(slow_every=1, slow_delay=...)`` stalling **every**
response — the paper's remote-LG latency, compressed — the async
engine runs at ``max_inflight=128`` against a server enforcing the
per-mount concurrent-connection cap fault mode at exactly the client's
``max_connections``. Gates: measured ``peak_inflight`` ≥
``MIN_INFLIGHT_RATIO``x the mount's peer count (the in-flight bound
of any engine whose unit of work is a whole peer, because the async
engine fans individual route *pages* onto one selectors loop), and
**zero** cap rejections — the client-side connection cap really
bounds the pressure the LG sees even while page fan-out runs far past
it.

The serial-vs-async wall-clock gate lives in
``test_bench_collection.py``.

Results land in ``BENCH_async.json`` at the repo root.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.ixp import get_profile
from repro.lg import (
    FaultSchedule,
    LookingGlassClient,
    LookingGlassServer,
)
from repro.lg.client import LookingGlassError
from repro.workload import ScenarioConfig, SnapshotGenerator

from conftest import SEED, emit

HERE = Path(__file__).resolve().parent
BENCH_OUT = HERE.parent / "BENCH_async.json"

#: the mount: a small IXP's v4 table.
MOUNT = ("bcix", 4)
BENCH_SCALE = 0.012
#: small pages make pagination the workload: at calibration scale each
#: peer announces only tens of routes, so page_size=5 reproduces the
#: paper's many-pages-per-peer regime.
PAGE_SIZE = 5
#: server-side stall added to every response.
SLOW_DELAY = 0.02
#: high fan-out point and the per-mount connection cap enforced by
#: the server (== the async client's max_connections).
HIGH_FANOUT = 128
#: acceptance floor: peak in-flight page fetches per peer.
MIN_INFLIGHT_RATIO = 4.0


@pytest.fixture(scope="module")
def high_fanout():
    """The async engine far past one fetch per peer, against a server
    enforcing the connection cap exactly at the client's budget."""
    ixp, family = MOUNT
    generator = SnapshotGenerator(
        get_profile(ixp), ScenarioConfig(scale=BENCH_SCALE, seed=SEED))
    server = LookingGlassServer(
        {MOUNT: generator.populated_route_server(family)},
        rate_per_second=100_000, burst=100_000,
        faults=FaultSchedule(slow_every=1, slow_delay=SLOW_DELAY),
        connection_cap=HIGH_FANOUT)
    with server.serve() as url:
        sync = LookingGlassClient(base_url=url, ixp=ixp, family=family)
        established = sorted(
            (n for n in sync.neighbors() if n.established),
            key=lambda n: n.asn)
        aclient = LookingGlassClient(
            base_url=url, ixp=ixp, family=family,
            max_inflight=HIGH_FANOUT, max_connections=HIGH_FANOUT,
            backoff_base=0.001, backoff_cap=0.01, timeout=30.0)
        try:
            started = time.perf_counter()
            outcomes = aclient.fetch_peers(established,
                                           page_size=PAGE_SIZE)
            elapsed = time.perf_counter() - started
        finally:
            aclient.close()
        errors = [v for v in outcomes.values()
                  if isinstance(v, LookingGlassError)]
        return {
            "mount": f"{ixp}/v{family}",
            "peers": len(established),
            "elapsed_s": elapsed,
            "errors": len(errors),
            "peak_inflight": aclient.peak_inflight,
            "pool_opened": aclient.pool.opened,
            "cap_rejections": server.cap_rejections,
            "peak_connections":
                server.peak_connections.get(f"{ixp}/v{family}", 0),
        }


def test_high_fanout_sustains_inflight_within_cap(high_fanout):
    result = high_fanout
    ratio = result["peak_inflight"] / result["peers"]

    emit(
        f"async high fan-out max_inflight={HIGH_FANOUT} under "
        f"connection cap {HIGH_FANOUT} (floor {MIN_INFLIGHT_RATIO:.0f}x "
        f"the peer count)",
        f"mount {result['mount']}: {result['peers']} peers, "
        f"{result['elapsed_s']:.3f}s, {result['errors']} errors\n"
        f"peak inflight {result['peak_inflight']} vs "
        f"{result['peers']} peers -> {ratio:.2f}x\n"
        f"connections: opened {result['pool_opened']}, server peak "
        f"{result['peak_connections']}, cap rejections "
        f"{result['cap_rejections']}")

    assert result["errors"] == 0
    assert result["cap_rejections"] == 0  # never tripped the LG's cap
    assert result["pool_opened"] <= HIGH_FANOUT
    assert result["peak_connections"] <= HIGH_FANOUT
    assert ratio >= MIN_INFLIGHT_RATIO, result


def test_write_bench_artifact(high_fanout):
    payload = {
        "version": 2,
        "scale": BENCH_SCALE,
        "seed": SEED,
        "page_size": PAGE_SIZE,
        "slow_delay_s": SLOW_DELAY,
        "floors": {"inflight_ratio": MIN_INFLIGHT_RATIO},
        "high_fanout": {
            "max_inflight": HIGH_FANOUT,
            "connection_cap": HIGH_FANOUT,
            "inflight_ratio":
                high_fanout["peak_inflight"] / high_fanout["peers"],
            **high_fanout,
        },
        "note": ("every response is stalled slow_delay_s server-side; "
                 "an engine whose unit of work is a whole peer keeps "
                 "at most one request per peer in flight — the async "
                 "engine fans route pages onto one selectors loop "
                 "under max_inflight and a hard per-host connection "
                 "cap"),
    }
    BENCH_OUT.write_text(json.dumps(payload, indent=1, sort_keys=True)
                         + "\n")
