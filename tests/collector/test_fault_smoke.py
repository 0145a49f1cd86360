"""Fault-injection smoke test (also run as a dedicated CI step).

A collection against a Looking Glass with a non-zero instability rate
must still come back with a snapshot — degraded and honest about which
peers were lost, never an unhandled exception.
"""

import pytest

from repro.collector import DatasetStore
from repro.collector.campaign import (
    STATUS_DEGRADED,
    CampaignConfig,
    CampaignTarget,
    CollectionCampaign,
)
from repro.lg import LookingGlassServer

DATE = "2021-10-04"


@pytest.fixture(scope="module")
def unstable_url(lg_world):
    server = LookingGlassServer(
        {("bcix", 4): lg_world("bcix")[1]},
        rate_per_second=100_000, burst=100_000,
        failure_rate=0.3)
    with server.serve() as url:
        yield url


def test_unstable_lg_yields_degraded_snapshot(unstable_url, tmp_path):
    store = DatasetStore(tmp_path / "ds")
    config = CampaignConfig(
        base_url=unstable_url, captured_on=DATE,
        targets=[CampaignTarget(ixp="bcix", family=4)],
        max_retries=1, page_retries=0, peer_attempts=1,
        backoff_base=0.001, backoff_cap=0.01,
        # no breaker: every peer gets its own small retry budget
        breaker_threshold=10**6)
    report = CollectionCampaign(store, config,
                                sleep=lambda _s: None).run()
    # the injector's failure bursts (deterministic seed) outlast the
    # deliberately small retry budget somewhere in the run — and the
    # campaign must absorb that, not crash.
    target = report.targets[0]
    assert target.status == STATUS_DEGRADED
    assert target.failures, "instability injected but nothing failed"
    snapshot = store.load_snapshot("bcix", 4, DATE)
    assert snapshot.meta["degraded"]
    assert snapshot.meta["peers_failed"] == sorted(
        f.asn for f in target.failures)
    # what did survive is real data
    assert target.peers_collected > 0
    assert snapshot.route_count > 0
