"""Append-only checkpoint journals.

Each campaign checkpoint flush appends one segment. Resume replays the
longest verified, chained prefix and quarantines the rest; fsck audits
each journal as a chain; a flush writes bytes in proportion to the
peers it adds, not to the peers collected so far.
"""

import gzip
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.bgp.route import Route
from repro.collector import (
    CrashSchedule,
    DatasetStore,
    SimulatedCrash,
    fsck_store,
    integrity,
    store as store_module,
)
from repro.collector.campaign import (
    CHECKPOINT_VERSION,
    STATUS_ALREADY_COLLECTED,
    STATUS_COMPLETE,
    CampaignConfig,
    CampaignTarget,
    CollectionCampaign,
    TargetReport,
    _PeerLedger,
)
from repro.collector.snapshot import Snapshot
from repro.io import faultfs
from repro.lg import LookingGlassServer
from repro.lg.api import NeighborSummary

DATE = "2021-10-04"
IXP, FAMILY = "linx", 4


def header():
    return {"version": CHECKPOINT_VERSION, "ixp": IXP, "family": FAMILY,
            "captured_on": DATE, "dictionary_digest": None}


def peer_entry(asn):
    return {"routes": [], "filtered": asn % 7, "name": f"AS{asn}"}


def journal_dir(store):
    return store.root / IXP / f"v{FAMILY}" / f"{DATE}.ckpt"


# -- replay ----------------------------------------------------------------

@st.composite
def journals(draw):
    """Flushes of distinct peers, then one damage to one segment."""
    sizes = draw(st.lists(st.integers(min_value=0, max_value=3),
                          min_size=1, max_size=6))
    asns = iter(range(64500, 64500 + sum(sizes)))
    flushes = [[next(asns) for _ in range(size)] for size in sizes]
    damage = draw(st.sampled_from(["none", "truncate", "flip",
                                   "remove"]))
    victim = draw(st.integers(min_value=0, max_value=len(flushes) - 1))
    cut = draw(st.floats(min_value=0.0, max_value=0.99))
    return flushes, damage, victim, cut


def damage_segment(path, damage, cut):
    """Damage one segment; True when it no longer reads back as
    written (a flipped bit can land where gzip does not look)."""
    data = path.read_bytes()
    if damage == "remove":
        path.unlink()
        return True
    if damage == "truncate":
        path.write_bytes(data[:int(len(data) * cut)])
        return True
    position = 10 + int((len(data) - 10) * cut)
    flipped = bytearray(data)
    flipped[position] ^= 0x10
    path.write_bytes(bytes(flipped))
    try:
        return gzip.decompress(bytes(flipped)) != gzip.decompress(data)
    except (OSError, EOFError, zlib.error):
        return True


class TestReplay:
    @settings(max_examples=60, deadline=None)
    @given(journals())
    def test_replay_keeps_the_longest_good_prefix(self, tmp_path_factory,
                                                  scenario):
        """Replay yields exactly the peers of the segments before the
        first damaged one; every later segment is quarantined and
        counted, and the next flush appends right after the prefix."""
        flushes, damage, victim, cut = scenario
        store = DatasetStore(tmp_path_factory.mktemp("journal"))
        paths = [store.save_checkpoint(IXP, FAMILY, DATE, {
            **header(), "peers": {str(asn): peer_entry(asn)
                                  for asn in flush},
            "failures": []}) for flush in flushes]
        broken = (damage != "none"
                  and damage_segment(paths[victim], damage, cut))
        good = victim if broken else len(flushes)

        dropped = []
        fresh = DatasetStore(store.root)
        checkpoint = fresh.load_checkpoint(IXP, FAMILY, DATE,
                                           dropped=dropped)

        want = {str(asn) for flush in flushes[:good] for asn in flush}
        if good == 0:
            assert checkpoint is None
        else:
            assert set(checkpoint["peers"]) == want
            assert checkpoint["version"] == CHECKPOINT_VERSION
        gone = 1 if broken and damage == "remove" else 0
        assert len(dropped) == len(flushes) - good - gone
        assert all(record.damage_class in ("torn_segment",
                                           "orphan_segment")
                   for record in dropped)
        assert [p.exists() for p in paths[:good]] == [True] * good
        assert not any(p.exists() for p in paths[good:])
        assert fsck_store(fresh).clean

        appended = fresh.save_checkpoint(IXP, FAMILY, DATE, {
            **header(), "peers": {"1": peer_entry(1)}, "failures": []})
        assert appended.name == f"{good:06d}.json.gz"
        assert set(DatasetStore(store.root).load_checkpoint(
            IXP, FAMILY, DATE)["peers"]) == want | {"1"}

    def test_unchained_segment_is_dropped(self, tmp_path):
        """A segment that verifies on its own but names the wrong
        predecessor, or another header, ends the prefix."""
        store = DatasetStore(tmp_path / "ds")
        for asn in (1, 2, 3):
            store.save_checkpoint(IXP, FAMILY, DATE, {
                **header(), "peers": {str(asn): peer_entry(asn)}})
        # rewrite segment 1 with a prev that does not chain
        segment = journal_dir(store) / "000001.json.gz"
        data, _digest = integrity.encode_artefact(
            {"seq": 1, "prev": "0" * 64, **header(),
             "peers": {"2": peer_entry(2)}}, "checkpoint", gz=True)
        segment.write_bytes(data)
        dropped = []
        checkpoint = DatasetStore(store.root).load_checkpoint(
            IXP, FAMILY, DATE, dropped=dropped)
        assert set(checkpoint["peers"]) == {"1"}
        assert [r.damage_class for r in dropped] == ["torn_segment"] * 2

        # a genesis for another dictionary does not take later segments
        other = DatasetStore(tmp_path / "other")
        other.save_checkpoint(IXP, FAMILY, DATE,
                              {**header(), "peers": {}})
        other.save_checkpoint(IXP, FAMILY, DATE, {
            **header(), "dictionary_digest": "ab" * 32, "peers": {}})
        dropped = []
        assert DatasetStore(other.root).load_checkpoint(
            IXP, FAMILY, DATE, dropped=dropped)["peers"] == {}
        assert len(dropped) == 1

    def test_missing_genesis_orphans_the_rest(self, tmp_path):
        store = DatasetStore(tmp_path / "ds")
        paths = [store.save_checkpoint(IXP, FAMILY, DATE, {
            **header(), "peers": {str(asn): peer_entry(asn)}})
            for asn in (1, 2)]
        paths[0].unlink()
        audit = fsck_store(store)
        assert [f.damage_class for f in audit.findings] \
            == ["orphan_segment"]
        dropped = []
        assert DatasetStore(store.root).load_checkpoint(
            IXP, FAMILY, DATE, dropped=dropped) is None
        assert [r.damage_class for r in dropped] == ["orphan_segment"]

    def test_delete_removes_the_journal(self, tmp_path):
        store = DatasetStore(tmp_path / "ds")
        for asn in (1, 2, 3):
            store.save_checkpoint(IXP, FAMILY, DATE, {
                **header(), "peers": {str(asn): peer_entry(asn)}})
        assert store.has_checkpoint(IXP, FAMILY, DATE)
        assert store.delete_checkpoint(IXP, FAMILY, DATE)
        assert not journal_dir(store).exists()
        assert not store.has_checkpoint(IXP, FAMILY, DATE)
        # the next flush starts a new genesis
        path = store.save_checkpoint(IXP, FAMILY, DATE,
                                     {**header(), "peers": {}})
        assert path.name == "000000.json.gz"


# -- fsck ------------------------------------------------------------------

class TestFsckJournal:
    def journal(self, store, flushes=3):
        return [store.save_checkpoint(IXP, FAMILY, DATE, {
            **header(), "peers": {str(asn): peer_entry(asn)}})
            for asn in range(1, flushes + 1)]

    def test_healthy_journal_is_clean(self, tmp_path):
        store = DatasetStore(tmp_path / "ds")
        self.journal(store)
        audit = fsck_store(store)
        assert audit.clean, audit.format_summary()
        assert audit.scanned == audit.verified == 3

    def test_torn_tail_is_found_and_quarantined(self, tmp_path):
        store = DatasetStore(tmp_path / "ds")
        paths = self.journal(store)
        paths[1].write_bytes(paths[1].read_bytes()[:25])
        audit = fsck_store(store)
        assert {cls: n for cls, n in audit.counts.items() if n} \
            == {"torn_segment": 2}
        assert "torn_segment" in audit.format_summary()
        assert paths[1].exists()  # audit-only moves nothing

        repaired = fsck_store(store, repair=True)
        assert all(f.action == "quarantined" for f in repaired.findings)
        assert fsck_store(store).clean
        assert [p.exists() for p in paths] == [True, False, False]
        assert {r.damage_class for r in store.quarantine_records()} \
            == {"torn_segment"}

    def test_journal_beside_published_snapshot_is_orphaned(self,
                                                           tmp_path):
        store = DatasetStore(tmp_path / "ds")
        paths = self.journal(store)
        store.save_snapshot(Snapshot(ixp=IXP, family=FAMILY,
                                     captured_on=DATE))
        audit = fsck_store(store)
        assert {cls: n for cls, n in audit.counts.items() if n} \
            == {"orphan_segment": 3}
        fsck_store(store, repair=True)
        assert fsck_store(store).clean
        assert not any(p.exists() for p in paths)
        assert not journal_dir(store).exists()


# -- campaigns -------------------------------------------------------------

class FakeClock:
    def __init__(self, tick=0.0):
        self.now = 0.0
        self.tick = tick

    def __call__(self):
        self.now += self.tick
        return self.now

    def sleep(self, seconds):
        self.now += seconds


@pytest.fixture(scope="module")
def lg_url(lg_world):
    server = LookingGlassServer({(IXP, FAMILY): lg_world(IXP)[1]},
                                rate_per_second=100_000, burst=100_000)
    with server.serve() as url:
        yield url


@pytest.fixture(scope="module")
def control(lg_url, tmp_path_factory):
    store = DatasetStore(tmp_path_factory.mktemp("control"))
    assert make_campaign(store, lg_url).run().complete
    return store.load_snapshot(IXP, FAMILY, DATE)


def make_campaign(store, url, clock=None, **kwargs):
    clock = clock or FakeClock()
    kwargs.setdefault("checkpoint_every", 1)
    return CollectionCampaign(store, CampaignConfig(
        base_url=url, targets=[CampaignTarget(ixp=IXP, family=FAMILY)],
        captured_on=DATE, **kwargs), clock=clock, sleep=clock.sleep)


def interrupted(store, url, segments=5):
    """A run killed before its flush after *segments* one-peer
    segments; returns their paths."""
    store.crash_schedule = CrashSchedule(label="checkpoint:begin",
                                         occurrence=segments + 1)
    with pytest.raises(SimulatedCrash):
        make_campaign(store, url).run()
    store.crash_schedule = None
    paths = sorted(journal_dir(store).glob("*.json.gz"))
    assert len(paths) == segments
    return paths


def same_content(snapshot, control):
    assert snapshot.to_dict()["routes"] == control.to_dict()["routes"]
    assert snapshot.to_dict()["members"] == control.to_dict()["members"]
    assert snapshot.summary() == control.summary()


class TestCampaignJournal:
    def test_torn_tail_resumes_from_the_prefix(self, lg_url, control,
                                               tmp_path):
        """A damaged newest segment no longer restarts the target: the
        prefix is merged, the tail is counted, and only the tail's
        peer is fetched again."""
        store = DatasetStore(tmp_path / "ds")
        segments = interrupted(store, lg_url)
        segments[-2].write_bytes(segments[-2].read_bytes()[:30])

        registry = obs.enable()
        try:
            resumed = make_campaign(store, lg_url).run(resume=True)
            dropped = registry.value(
                "repro_campaign_checkpoint_segments_dropped_total",
                IXP, str(FAMILY), "torn_segment")
        finally:
            obs.disable()
        target = resumed.targets[0]
        assert target.status == STATUS_COMPLETE
        assert target.peers_resumed == len(segments) - 2
        assert dropped == 2
        assert not store.has_checkpoint(IXP, FAMILY, DATE)
        same_content(store.load_snapshot(IXP, FAMILY, DATE), control)

    def test_old_single_file_checkpoint_is_version_drift(
            self, lg_url, control, tmp_path):
        store = DatasetStore(tmp_path / "ds")
        legacy = store.root / IXP / f"v{FAMILY}" / f"{DATE}.ckpt.json.gz"
        data, _digest = integrity.encode_artefact(
            {**header(), "version": 1,
             "peers": {"999999": peer_entry(999999)}, "failures": []},
            "checkpoint", gz=True)
        legacy.parent.mkdir(parents=True)
        legacy.write_bytes(data)
        assert store.has_checkpoint(IXP, FAMILY, DATE)

        registry = obs.enable()
        try:
            report = make_campaign(store, lg_url).run(resume=True)
            rejected = registry.value(
                "repro_campaign_checkpoints_rejected_total",
                IXP, str(FAMILY), "version_drift")
        finally:
            obs.disable()
        target = report.targets[0]
        assert target.checkpoint_discarded == "version_drift"
        assert target.peers_resumed == 0
        assert rejected == 1
        assert not legacy.exists()
        snapshot = store.load_snapshot(IXP, FAMILY, DATE)
        assert all(m.asn != 999999 for m in snapshot.members)
        same_content(snapshot, control)

    def test_crash_after_publish_leaves_no_stale_journal(
            self, lg_url, control, tmp_path):
        """A crash between publishing the snapshot and deleting the
        journal: fsck names the journal, and a resume removes it."""
        store = DatasetStore(tmp_path / "ds", crash_schedule=CrashSchedule(
            label="snapshot:renamed"))
        with pytest.raises(SimulatedCrash):
            make_campaign(store, lg_url, checkpoint_every=8).run()
        store.crash_schedule = None
        assert store.has_checkpoint(IXP, FAMILY, DATE)
        assert fsck_store(store).counts["orphan_segment"] > 0

        report = make_campaign(store, lg_url).run(resume=True)
        assert report.targets[0].status == STATUS_ALREADY_COLLECTED
        assert not store.has_checkpoint(IXP, FAMILY, DATE)
        assert not journal_dir(store).exists()
        fsck_store(store, repair=True)  # the unrecorded snapshot
        assert fsck_store(store).clean
        same_content(store.load_snapshot(IXP, FAMILY, DATE), control)

    def test_hidden_newest_segment_is_a_dropped_tail(self, lg_url,
                                                     control, tmp_path):
        """A listing that lags behind the journal (delayed visibility)
        omits the newest segment: resume takes the prefix it sees,
        fetches that segment's peer again, and converges to the same
        snapshot as a resume that lost the segment outright."""
        stores = {label: DatasetStore(tmp_path / label)
                  for label in ("hidden", "removed")}
        segments = {label: interrupted(store, lg_url)
                    for label, store in stores.items()}
        segments["removed"][-1].unlink()

        previous = faultfs.install(faultfs.FaultFS(faultfs.FsFaultPlan(
            rules=[faultfs.FsFaultRule(op="listdir", kind="hidden",
                                       path_glob="*.ckpt")])))
        try:
            hidden = make_campaign(stores["hidden"],
                                   lg_url).run(resume=True)
        finally:
            faultfs.install(previous)
        removed = make_campaign(stores["removed"],
                                lg_url).run(resume=True)
        for report in (hidden, removed):
            assert report.complete
            assert report.targets[0].peers_resumed \
                == len(segments["hidden"]) - 1
        data = {label: store._snapshot_path(IXP, FAMILY, DATE)
                .read_bytes() for label, store in stores.items()}
        assert data["hidden"] == data["removed"]
        for store in stores.values():
            assert not store.has_checkpoint(IXP, FAMILY, DATE)
            assert fsck_store(store).clean
        same_content(stores["hidden"].load_snapshot(IXP, FAMILY, DATE),
                     control)

    def test_ambiguous_segment_replace_keeps_the_chain(self, lg_url,
                                                       control, tmp_path):
        """A segment rename that succeeds but reports an error is
        resolved by the atomic write; the journal still replays in
        full and the resumed snapshot matches the control."""
        store = DatasetStore(tmp_path / "ds")
        previous = faultfs.install(faultfs.FaultFS(faultfs.FsFaultPlan(
            rules=[faultfs.FsFaultRule(op="replace",
                                       kind="ambiguous_link",
                                       path_glob="*.ckpt/*",
                                       start_after=1)])))
        try:
            segments = interrupted(store, lg_url)
            fired = faultfs.active_fs().fault_counts
        finally:
            faultfs.install(previous)
        assert fired == {"replace:ambiguous_link": 1}
        dropped = []
        checkpoint = DatasetStore(store.root).load_checkpoint(
            IXP, FAMILY, DATE, dropped=dropped)
        assert dropped == []
        assert len(checkpoint["peers"]) == len(segments)
        assert fsck_store(store).clean
        resumed = make_campaign(store, lg_url).run(resume=True)
        assert resumed.targets[0].peers_resumed == len(segments)
        same_content(store.load_snapshot(IXP, FAMILY, DATE), control)


# -- write amplification ---------------------------------------------------

def flushed_bytes(tmp_path, peers, monkeypatch):
    """Checkpoint bytes written through ``atomic_write`` when *peers*
    same-shaped peers are flushed one at a time."""
    written = []
    original = store_module.atomic_write

    def counting(path, data, **kwargs):
        if kwargs.get("kind") == "checkpoint":
            written.append(len(data))
        return original(path, data, **kwargs)

    monkeypatch.setattr(store_module, "atomic_write", counting)
    store = DatasetStore(tmp_path / f"peers{peers}")
    target = CampaignTarget(ixp=IXP, family=FAMILY)
    campaign = CollectionCampaign(store, CampaignConfig(
        base_url="http://lg.invalid", targets=[target], captured_on=DATE))
    report = TargetReport(ixp=IXP, family=FAMILY)
    ledger = _PeerLedger()
    for index in range(peers):
        asn = 64600 + index
        routes = [Route.from_dict({
            "prefix": f"10.{index}.{n}.0/24", "next_hop": "192.0.2.1",
            "as_path": f"{asn} 64500", "peer_asn": asn,
            "communities": ["0:6695", "64500:1"]}) for n in range(8)]
        ledger.collect(NeighborSummary(
            asn=asn, name=f"AS{asn}", state="Established",
            routes_accepted=len(routes), routes_filtered=0), routes)
        campaign._save_checkpoint(target, DATE, ledger, report)
    return sum(written)


def test_checkpoint_bytes_grow_linearly_with_peers(tmp_path, monkeypatch):
    """Twice the peers, at most ~twice the checkpoint bytes: a flush
    writes only what it adds. (Rewriting the whole checkpoint at every
    flush grows with the square of the peer count: 3.1x here.)"""
    single = flushed_bytes(tmp_path, 20, monkeypatch)
    double = flushed_bytes(tmp_path, 40, monkeypatch)
    assert double / single <= 2.2, (single, double)
