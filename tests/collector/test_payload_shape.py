"""Looking Glass answers that are not what they should be.

A payload that parses as JSON can still be the wrong type, miss a
field or carry an unparseable value. Each such payload must land in
the ``malformed_payload`` failure class at both ``io`` bounds: a bad
``/neighbors`` fails its target, a bad routes page fails its peer,
and every other peer and target is still collected.

Below JSON, the HTTP exchange itself can break: the LG closes without
answering, sends a status line that is not HTTP, or closes before its
``Content-Length`` is sent. Each lands in the taxonomy too, and the
campaign run returns.
"""

import pytest

from repro.bgp.aspath import AsPath
from repro.bgp.route import Route
from repro.collector import DatasetStore
from repro.collector.campaign import (
    STATUS_COMPLETE,
    STATUS_DEGRADED,
    STATUS_FAILED,
    CampaignConfig,
    CampaignTarget,
    CollectionCampaign,
)
from repro.lg.api import neighbors_payload, routes_payload
from repro.lg.client import FAILURE_LG_OUTAGE, FAILURE_MALFORMED

from ..support import StubLookingGlass

DATE = "2021-10-04"
BAD_PEER, GOOD_PEER = 64500, 64501


def neighbor_row(asn):
    return {"asn": asn, "name": f"AS{asn}", "state": "Established",
            "routes_accepted": 1, "routes_filtered": 0}


def routes_page(asn, index):
    route = Route(prefix=f"20.{index}.0.0/16", next_hop="192.0.2.1",
                  as_path=AsPath.from_asns([asn]), peer_asn=asn)
    return routes_payload([route], page=1, page_size=500, total=1,
                          filtered=False)


def good_mount(asns):
    paths = {"/neighbors": neighbors_payload(
        [neighbor_row(asn) for asn in asns])}
    for index, asn in enumerate(asns):
        paths[f"/neighbors/{asn}/routes"] = routes_page(asn, index)
    return paths


def bad_prefix_page():
    page = routes_page(BAD_PEER, 0)
    page["routes"][0]["prefix"] = "999.1.1.0/24"
    return page


def bad_pagination_page():
    page = routes_page(BAD_PEER, 0)
    page["pagination"]["total_pages"] = "many"
    return page


#: name -> (linx resource to replace, its body, whether it is /neighbors)
SHAPES = {
    "neighbors-list": ("/neighbors", [], True),
    "neighbors-bad-asn": ("/neighbors", {"neighbors": [{"asn": "x"}]},
                          True),
    "routes-bad-prefix": (f"/neighbors/{BAD_PEER}/routes",
                          bad_prefix_page(), False),
    "routes-bad-total-pages": (f"/neighbors/{BAD_PEER}/routes",
                               bad_pagination_page(), False),
    "routes-list": (f"/neighbors/{BAD_PEER}/routes", [], False),
}


@pytest.mark.parametrize("io", ["serial", "async"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_wrong_shape_lands_in_malformed_payload(shape, io, tmp_path):
    resource, body, is_neighbors = SHAPES[shape]
    linx = good_mount([BAD_PEER, GOOD_PEER])
    linx[resource] = body
    mounts = {"linx": linx, "bcix": good_mount([64600])}
    store = DatasetStore(tmp_path / "ds")
    config = CampaignConfig(
        base_url="", captured_on=DATE, io=io, max_retries=0,
        backoff_base=0.0,
        targets=[CampaignTarget(ixp="linx", family=4),
                 CampaignTarget(ixp="bcix", family=4)])
    with StubLookingGlass(mounts) as url:
        config.base_url = url
        report = CollectionCampaign(store, config,
                                    sleep=lambda _s: None).run()

    reports = {target.ixp: target for target in report.targets}
    bad, good = reports["linx"], reports["bcix"]
    assert good.status == STATUS_COMPLETE
    assert good.peers_collected == 1
    assert [f.failure_class for f in bad.failures] == ["malformed_payload"]
    if is_neighbors:
        assert bad.status == STATUS_FAILED
        assert bad.failures[0].asn == 0
    else:
        assert bad.status == STATUS_DEGRADED
        assert bad.failures[0].asn == BAD_PEER
        assert bad.peers_collected == 1
        snapshot = store.load_snapshot("linx", 4, DATE)
        assert {r.peer_asn for r in snapshot.routes} == {GOOD_PEER}


#: name -> (raw bytes the LG sends for ``/neighbors`` before closing,
#: the failure class the target must end in)
TRANSPORT_FAULTS = {
    "remote-disconnected": (b"", FAILURE_LG_OUTAGE),
    "bad-status-line": (b"HELLO THERE\r\n\r\n", FAILURE_MALFORMED),
    "incomplete-read": (b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n"
                        b"\r\n{\"neigh", FAILURE_LG_OUTAGE),
}


@pytest.mark.parametrize("io", ["serial", "async"])
@pytest.mark.parametrize("fault", sorted(TRANSPORT_FAULTS))
def test_transport_fault_fails_the_target_not_the_run(fault, io,
                                                      tmp_path):
    raw, failure_class = TRANSPORT_FAULTS[fault]
    linx = good_mount([GOOD_PEER])
    linx["/neighbors"] = raw
    mounts = {"linx": linx, "bcix": good_mount([64600])}
    store = DatasetStore(tmp_path / "ds")
    config = CampaignConfig(
        base_url="", captured_on=DATE, io=io, max_retries=1,
        backoff_base=0.0,
        targets=[CampaignTarget(ixp="linx", family=4),
                 CampaignTarget(ixp="bcix", family=4)])
    with StubLookingGlass(mounts) as url:
        config.base_url = url
        report = CollectionCampaign(store, config,
                                    sleep=lambda _s: None).run()

    reports = {target.ixp: target for target in report.targets}
    bad, good = reports["linx"], reports["bcix"]
    assert good.status == STATUS_COMPLETE
    assert bad.status == STATUS_FAILED
    assert [(f.asn, f.failure_class) for f in bad.failures] \
        == [(0, failure_class)]
    assert not store.has_snapshot("linx", 4, DATE)
