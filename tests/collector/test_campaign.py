"""Integration tests for fault-tolerant collection campaigns.

Real HTTP against the simulated LG, but virtual time everywhere else:
the campaign's clock/sleep are a fake clock, so deadlines, backoff
waits, and breaker cooldowns all run instantly.
"""

import pytest

from repro.bgp.route import Route
from repro.collector import DatasetStore
from repro.collector.campaign import (
    CHECKPOINT_VERSION,
    STATUS_ALREADY_COLLECTED,
    STATUS_COMPLETE,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_INCOMPLETE,
    CampaignConfig,
    CampaignTarget,
    CollectionCampaign,
)
from repro.lg import FaultSchedule, LookingGlassServer
from repro.lg.client import FAILURE_CLASSES

DATE = "2021-10-04"


class FakeClock:
    """Virtual monotonic time; ``tick`` advances it a little on every
    read so per-peer work consumes deadline budget."""

    def __init__(self, tick=0.0):
        self.now = 0.0
        self.tick = tick

    def __call__(self):
        self.now += self.tick
        return self.now

    def sleep(self, seconds):
        self.now += seconds


@pytest.fixture(scope="module")
def mounts(lg_world):
    return {(ixp, 4): lg_world(ixp)[1] for ixp in ("linx", "bcix")}


def start_server(mounts, **kwargs):
    kwargs.setdefault("rate_per_second", 100_000)
    kwargs.setdefault("burst", 100_000)
    return LookingGlassServer(mounts, **kwargs)


def make_campaign(store, url, targets=("linx",), clock=None, **kwargs):
    clock = clock or FakeClock()
    # coarser checkpoint cadence than the per-peer default: fewer
    # journal segments per run, and a deadline/crash park always
    # writes one more anyway.
    kwargs.setdefault("checkpoint_every", 8)
    config = CampaignConfig(
        base_url=url,
        targets=[CampaignTarget(ixp=ixp, family=4) for ixp in targets],
        captured_on=DATE,
        **kwargs)
    return CollectionCampaign(store, config, clock=clock,
                              sleep=clock.sleep)


@pytest.fixture(scope="module")
def clean_run(mounts, tmp_path_factory):
    """One fault-free two-IXP campaign, shared by the happy-path
    assertions (report and store are never mutated)."""
    server = start_server(mounts)
    store = DatasetStore(tmp_path_factory.mktemp("campaign") / "ds")
    with server.serve() as url:
        report = make_campaign(store, url,
                               targets=("linx", "bcix")).run()
    return report, store


class TestHappyPath:
    def test_complete_campaign_over_two_ixps(self, mounts, clean_run):
        report, store = clean_run
        assert report.complete
        assert {t.status for t in report.targets} == {STATUS_COMPLETE}
        for target in report.targets:
            snapshot = store.load_snapshot(target.ixp, 4, DATE)
            expected = mounts[(target.ixp, 4)]
            assert snapshot.route_count == len(expected.accepted_routes())
            assert not snapshot.meta["degraded"]
            # no checkpoint debris after a clean finish
            assert not store.has_checkpoint(target.ixp, 4, DATE)

    def test_report_counts_all_failure_classes(self, clean_run):
        report, _store = clean_run
        assert set(report.failure_counts) == set(FAILURE_CLASSES)
        assert all(count == 0 for count in report.failure_counts.values())

    def test_collected_routes_are_parsed_once(self, mounts, tmp_path,
                                              monkeypatch):
        """Each route is parsed from its LG page and nowhere else: the
        snapshot is built from those routes, not from the checkpoint
        entries written beside them."""
        parses = []
        from_dict = Route.from_dict.__func__

        def counted(cls, payload, memo=None):
            parses.append(payload["prefix"])
            return from_dict(cls, payload, memo)

        monkeypatch.setattr(Route, "from_dict", classmethod(counted))
        store = DatasetStore(tmp_path / "ds")
        with start_server(mounts).serve() as url:
            assert make_campaign(store, url, checkpoint_every=1).run() \
                .complete
        assert len(parses) == len(mounts[("linx", 4)].accepted_routes())

    def test_summary_and_dict_round_trip(self, clean_run):
        report, _store = clean_run
        text = report.format_summary()
        assert "linx/v4" in text
        assert "complete" in text
        payload = report.to_dict()
        assert payload["failure_counts"]
        assert payload["targets"][0]["status"] == STATUS_COMPLETE


class TestResume:
    def test_deadline_parks_then_resume_completes(self, mounts, tmp_path):
        """The acceptance path: a campaign interrupted mid-snapshot and
        re-run with resume completes without re-fetching checkpointed
        peers (request counts prove it)."""
        server = start_server(mounts)
        store = DatasetStore(tmp_path / "ds")
        reference_store = DatasetStore(tmp_path / "ref")
        with server.serve() as url:
            # reference: how many requests a full uninterrupted
            # collection costs.
            full = make_campaign(reference_store, url)
            full_report = full.run()
            assert full_report.complete
            full_requests = full.client_for(
                full.config.targets[0]).stats.requests

            # run 1: every peer costs ~1s of virtual time; the deadline
            # kills the snapshot partway through.
            clock = FakeClock(tick=1.0)
            campaign = make_campaign(store, url, clock=clock,
                                     snapshot_deadline=5.0)
            report = campaign.run()
            target = report.targets[0]
            assert target.status == STATUS_INCOMPLETE
            assert target.deadline_hit
            assert 0 < target.peers_collected
            assert store.has_checkpoint("linx", 4, DATE)
            assert not store.has_snapshot("linx", 4, DATE)
            checkpointed = target.peers_collected

            # run 2: resume. Completes, and the checkpointed peers are
            # NOT re-fetched.
            resumed = make_campaign(store, url)
            resumed_report = resumed.run(resume=True)
            resumed_target = resumed_report.targets[0]
            assert resumed_target.status == STATUS_COMPLETE
            assert resumed_target.peers_resumed == checkpointed
            resumed_requests = resumed.client_for(
                resumed.config.targets[0]).stats.requests
        # each checkpointed peer is at least one routes request the
        # resumed run did not have to repeat.
        assert resumed_requests <= full_requests - checkpointed
        # the stitched snapshot equals the uninterrupted one.
        snapshot = store.load_snapshot("linx", 4, DATE)
        reference = reference_store.load_snapshot("linx", 4, DATE)
        assert snapshot.route_count == reference.route_count
        assert snapshot.member_count == reference.member_count
        assert snapshot.meta["campaign"]["resumed_peers"] == checkpointed
        # resumed peers decode from the checkpoint, the rest come as
        # parsed from their LG pages: together they equal the control
        stitched, control = snapshot.to_dict(), reference.to_dict()
        assert stitched["routes"] == control["routes"]
        assert stitched["members"] == control["members"]
        assert not store.has_checkpoint("linx", 4, DATE)

    def test_resume_skips_already_collected_dates(self, mounts, tmp_path):
        server = start_server(mounts)
        store = DatasetStore(tmp_path / "ds")
        with server.serve() as url:
            first = make_campaign(store, url).run()
            assert first.complete
            again = make_campaign(store, url)
            second = again.run(resume=True)
            assert second.targets[0].status == STATUS_ALREADY_COLLECTED
            # nothing was fetched at all
            client = again.client_for(again.config.targets[0])
            assert client.stats.requests == 0

    def test_fresh_run_discards_stale_checkpoint(self, mounts, tmp_path):
        store = DatasetStore(tmp_path / "ds")
        store.save_checkpoint("linx", 4, DATE, {
            "version": CHECKPOINT_VERSION, "ixp": "linx", "family": 4,
            "captured_on": DATE,
            "peers": {"999999": {"routes": [], "filtered": 0,
                                 "name": "stale"}},
            "failures": []})
        server = start_server(mounts)
        with server.serve() as url:
            report = make_campaign(store, url).run(resume=False)
        target = report.targets[0]
        assert target.peers_resumed == 0
        assert not store.has_checkpoint("linx", 4, DATE)
        snapshot = store.load_snapshot("linx", 4, DATE)
        assert all(m.asn != 999999 for m in snapshot.members)


class TestFaultInjection:
    def test_campaign_survives_outage_rate_limit_and_malformed(
            self, mounts, tmp_path):
        """The acceptance scenario: outage window + rate limiting +
        malformed payloads over two IXPs. The campaign must finish with
        per-class failure counts and zero unhandled exceptions, and the
        breaker must open and recover within the run."""
        import time as _time

        # requests 5..12 are a hard outage: long enough (>= 2 exhausted
        # calls at max_retries=1) to trip a threshold-2 breaker, short
        # enough that plenty of peers remain afterwards for the
        # half-open probe to succeed and close it again.
        faults = FaultSchedule(outage_windows=[(5, 13)],
                               malformed_every=17)
        server = start_server(mounts, faults=faults,
                              rate_per_second=2000, burst=25)
        store = DatasetStore(tmp_path / "ds")
        clock = FakeClock()

        def paced_sleep(seconds):
            # fake time for deadlines/cooldowns, plus a sliver of real
            # time so the server's token bucket actually refills.
            clock.sleep(seconds)
            _time.sleep(min(seconds, 0.002))

        with server.serve() as url:
            config = CampaignConfig(
                base_url=url,
                targets=[CampaignTarget(ixp=ixp, family=4)
                         for ixp in ("linx", "bcix")],
                captured_on=DATE, checkpoint_every=8,
                max_retries=1, peer_attempts=2,
                breaker_threshold=2, breaker_reset=3.0,
                backoff_base=0.001, backoff_cap=0.01)
            campaign = CollectionCampaign(store, config, clock=clock,
                                          sleep=paced_sleep)
            report = campaign.run()

        # every target terminated in a defined state, snapshots exist
        # for all non-parked targets.
        for target in report.targets:
            assert target.status in (STATUS_COMPLETE, STATUS_DEGRADED,
                                     STATUS_INCOMPLETE, STATUS_FAILED)
        produced = [t for t in report.targets
                    if t.status in (STATUS_COMPLETE, STATUS_DEGRADED)]
        assert produced, "no snapshot survived the fault injection"
        # the taxonomy is fully reported
        counts = report.failure_counts
        assert set(counts) == set(FAILURE_CLASSES)
        # the outage window was long enough to trip the breaker, and
        # the campaign recovered it before finishing.
        assert any(t.breaker_opens > 0 for t in report.targets)
        recovered = [t for t in report.targets if t.breaker_opens > 0]
        assert any(t.breaker_state == "closed" for t in recovered)
        # degraded snapshots carry the taxonomy in their meta
        for target in produced:
            snapshot = store.load_snapshot(target.ixp, 4, DATE)
            assert set(snapshot.meta["campaign"]["failure_counts"]) \
                == set(FAILURE_CLASSES)

    def test_unmounted_ixp_fails_cleanly(self, mounts, tmp_path):
        server = start_server(mounts)
        store = DatasetStore(tmp_path / "ds")
        with server.serve() as url:
            report = make_campaign(store, url,
                                   targets=("amsix",)).run()
        target = report.targets[0]
        assert target.status == STATUS_FAILED
        assert target.error
        assert not store.has_snapshot("amsix", 4, DATE)

class TestGracefulShutdown:
    def test_shutdown_parks_then_resume_completes(self, mounts,
                                                  tmp_path):
        """A shutdown request mid-target finishes the in-flight peer,
        flushes a checkpoint, and parks the run resumable."""
        server = start_server(mounts)
        store = DatasetStore(tmp_path / "ds")
        with server.serve() as url:
            campaign = make_campaign(store, url,
                                     targets=("linx", "bcix"),
                                     checkpoint_every=1)
            # trip the shutdown from inside the run, once the first
            # target's third per-peer checkpoint has been flushed.
            original = store.save_checkpoint
            checkpoints = {"count": 0}

            def hooked(*args, **kwargs):
                path = original(*args, **kwargs)
                checkpoints["count"] += 1
                if checkpoints["count"] == 3:
                    campaign.request_shutdown()
                return path

            store.save_checkpoint = hooked
            report = campaign.run()
            store.save_checkpoint = original

            assert report.interrupted
            assert report.resumable
            assert "parked for --resume" in report.format_summary()
            first = report.targets[0]
            assert first.status == STATUS_INCOMPLETE
            assert first.interrupted
            assert 0 < first.peers_collected
            assert store.has_checkpoint("linx", 4, DATE)
            assert not store.has_snapshot("linx", 4, DATE)
            # the second target was never reached
            assert len(report.targets) == 1

            resumed = make_campaign(store, url,
                                    targets=("linx", "bcix"))
            final = resumed.run(resume=True)
        assert final.complete
        assert not final.interrupted
        assert final.targets[0].peers_resumed == first.peers_collected
        for ixp in ("linx", "bcix"):
            assert store.has_snapshot(ixp, 4, DATE)
            assert not store.has_checkpoint(ixp, 4, DATE)

    def test_signal_handler_requests_shutdown_once(self, mounts,
                                                   tmp_path):
        import os
        import signal

        from repro.collector.campaign import install_shutdown_handlers

        store = DatasetStore(tmp_path / "ds")
        campaign = make_campaign(store, "http://unused.invalid")
        previous = signal.getsignal(signal.SIGTERM)
        restore = install_shutdown_handlers(
            campaign, signals=(signal.SIGTERM,))
        try:
            assert signal.getsignal(signal.SIGTERM) is not previous
            os.kill(os.getpid(), signal.SIGTERM)
            assert campaign.shutdown_requested
            # the first signal restored the previous handler: a second
            # one falls through to the default hard stop.
            assert signal.getsignal(signal.SIGTERM) is previous
        finally:
            restore()
        assert signal.getsignal(signal.SIGTERM) is previous


class TestConcurrentCollection:
    """The async engine must change wall-clock behaviour only:
    snapshots, checkpoints, and reports stay exactly what a serial run
    produces."""

    ASYNC = {"io": "async", "max_inflight": 8}

    @staticmethod
    def snapshot_bytes(store, ixp="linx"):
        return store._snapshot_path(ixp, 4, DATE).read_bytes()

    def test_async_writes_byte_identical_snapshot(self, mounts, tmp_path):
        """The acceptance criterion: an ``io="async"`` run writes the
        same bytes to disk as a serial one."""
        server = start_server(mounts)
        serial_store = DatasetStore(tmp_path / "serial")
        async_store = DatasetStore(tmp_path / "async")
        with server.serve() as url:
            serial = make_campaign(serial_store, url).run()
            fanned = make_campaign(async_store, url, **self.ASYNC).run()
        assert serial.complete and fanned.complete
        assert self.snapshot_bytes(async_store) \
            == self.snapshot_bytes(serial_store)
        s, a = serial.targets[0], fanned.targets[0]
        assert (a.peers_attempted, a.peers_collected, a.failures) \
            == (s.peers_attempted, s.peers_collected, s.failures)
        assert not async_store.has_checkpoint("linx", 4, DATE)

    def test_async_collects_all_mounts_in_config_order(
            self, mounts, tmp_path):
        server = start_server(mounts)
        serial_store = DatasetStore(tmp_path / "serial")
        async_store = DatasetStore(tmp_path / "async")
        with server.serve() as url:
            serial = make_campaign(serial_store, url,
                                   targets=("linx", "bcix")).run()
            fanned = make_campaign(async_store, url,
                                   targets=("linx", "bcix"),
                                   **self.ASYNC).run()
        assert serial.complete and fanned.complete
        assert [t.ixp for t in fanned.targets] == ["linx", "bcix"]
        for ixp in ("linx", "bcix"):
            assert self.snapshot_bytes(async_store, ixp) \
                == self.snapshot_bytes(serial_store, ixp)

    def test_shutdown_drains_inflight_then_resume_completes(
            self, mounts, tmp_path):
        """A shutdown mid-run stops submission, drains the peers
        already in flight on the loop into the park checkpoint, and
        the resumed run converges to the uninterrupted snapshot."""
        server = start_server(mounts)
        store = DatasetStore(tmp_path / "ds")
        control_store = DatasetStore(tmp_path / "control")
        with server.serve() as url:
            control = make_campaign(control_store, url).run()
            assert control.complete

            campaign = make_campaign(store, url, checkpoint_every=1,
                                     **self.ASYNC)
            original = store.save_checkpoint
            checkpoints = {"count": 0}

            def hooked(*args, **kwargs):
                path = original(*args, **kwargs)
                checkpoints["count"] += 1
                if checkpoints["count"] == 2:
                    campaign.request_shutdown()
                return path

            store.save_checkpoint = hooked
            report = campaign.run()
            store.save_checkpoint = original

            assert report.interrupted and report.resumable
            target = report.targets[0]
            assert target.status == STATUS_INCOMPLETE
            assert target.interrupted
            assert 0 < target.peers_collected \
                < control.targets[0].peers_collected
            assert store.has_checkpoint("linx", 4, DATE)
            assert not store.has_snapshot("linx", 4, DATE)

            resumed = make_campaign(store, url, **self.ASYNC)
            final = resumed.run(resume=True)
        assert final.complete
        assert final.targets[0].peers_resumed == target.peers_collected
        assert not store.has_checkpoint("linx", 4, DATE)
        # the stitched snapshot matches the uninterrupted control
        # (meta records the resume, so compare content not bytes)
        assert store.load_snapshot("linx", 4, DATE).summary() \
            == control_store.load_snapshot("linx", 4, DATE).summary()

    def test_async_client_closed_after_run(self, mounts, tmp_path,
                                           monkeypatch):
        """An async campaign releases its sockets and selectors when
        ``run`` returns: no idle pooled connection is left open and
        nothing warns about an unclosed socket at collection."""
        import gc
        import warnings

        from repro.net import aio

        pools = []
        original_init = aio.ConnectionPool.__init__

        def recording_init(pool, *args, **kwargs):
            original_init(pool, *args, **kwargs)
            pools.append(pool)

        monkeypatch.setattr(aio.ConnectionPool, "__init__", recording_init)
        server = start_server(mounts)
        with server.serve() as url, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            campaign = make_campaign(DatasetStore(tmp_path / "ds"), url,
                                     targets=("linx", "bcix"), **self.ASYNC)
            assert campaign.run().complete
            assert len(pools) == 2 and all(p.opened for p in pools)
            assert [p.open_connections() for p in pools] == [0, 0]
            del campaign
            pools.clear()
            gc.collect()
        leaked = [w for w in caught
                  if issubclass(w.category, ResourceWarning)]
        assert not leaked, [str(w.message) for w in leaked]

    def test_cli_accepts_io_flag(self, mounts, tmp_path, capsys):
        from repro.cli import main

        server = start_server(mounts)
        with server.serve() as url:
            for engine in ("serial", "async"):
                root = str(tmp_path / engine)
                assert main(["campaign", "--url", url, "--store", root,
                             "--ixps", "linx", "--families", "4",
                             "--date", DATE, "--checkpoint-every", "8",
                             "--io", engine, "--max-inflight", "8"]) == 0
                assert DatasetStore(root).has_snapshot("linx", 4, DATE)
        assert "complete" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["campaign", "--url", url, "--store", root,
                  "--io", "threads"])


class TestCampaignCli:
    def test_run_park_resume_exit_codes(self, mounts, tmp_path, capsys):
        from repro.cli import main

        server = start_server(mounts)
        root = str(tmp_path / "ds")
        with server.serve() as url:
            base = ["campaign", "--url", url, "--store", root,
                    "--ixps", "linx", "--families", "4",
                    "--date", DATE, "--checkpoint-every", "8"]
            # a zero deadline parks the target immediately: exit 2 and
            # a checkpoint on disk.
            assert main(base + ["--deadline", "0"]) == 2
            out = capsys.readouterr().out
            assert "incomplete" in out
            assert "--resume" in out
            store = DatasetStore(root)
            assert store.has_checkpoint("linx", 4, DATE)
            assert not store.has_snapshot("linx", 4, DATE)

            # resuming without the deadline finishes the job: exit 0.
            assert main(base + ["--resume"]) == 0
            out = capsys.readouterr().out
            assert "complete" in out
            assert store.has_snapshot("linx", 4, DATE)
            assert not store.has_checkpoint("linx", 4, DATE)


class TestMonotonicDeadlines:
    """ISSUE 6 satellite: deadline arithmetic must never read the wall
    clock. The campaign's injectable clock defaults to
    ``time.monotonic``; these tests pin that a wall-clock jump (NTP
    step, DST, a VM resuming) cannot trip a per-snapshot deadline."""

    def test_default_clock_is_monotonic(self):
        import time

        campaign = CollectionCampaign(
            DatasetStore("/tmp/unused-clock-probe"),
            CampaignConfig(base_url="http://unused", targets=[]))
        assert campaign.clock is time.monotonic

    def test_wall_clock_jump_does_not_trip_deadline(
            self, mounts, tmp_path, monkeypatch):
        """Jump ``time.time`` forward by a week mid-campaign; a
        generous deadline must still not be hit — only monotonic time
        may count against the budget."""
        import time as _time

        jumped = _time.time() + 7 * 86400.0
        monkeypatch.setattr(_time, "time", lambda: jumped)

        server = start_server(mounts)
        store = DatasetStore(tmp_path / "ds")
        with server.serve() as url:
            config = CampaignConfig(
                base_url=url,
                targets=[CampaignTarget(ixp="linx", family=4)],
                captured_on=DATE, checkpoint_every=8,
                snapshot_deadline=3600.0,
                backoff_base=0.001, backoff_cap=0.01)
            # deliberately the *default* clock — the regression under
            # test is a wall-clock sneaking back into deadline math
            report = CollectionCampaign(store, config).run()
        target = report.targets[0]
        assert target.status == STATUS_COMPLETE
        assert not target.deadline_hit


class TestDictionaryDriftOnResume:
    """ISSUE 6 satellite: --resume verifies the parked checkpoint's
    dictionary digest against the store's current dictionary and
    restarts (never silently merges) targets whose community scheme
    changed while they were parked."""

    def _parked(self, store, url, lg_world):
        generator, _server = lg_world("linx")
        store.save_dictionary("linx", generator.dictionary)
        clock = FakeClock(tick=1.0)
        campaign = make_campaign(store, url, clock=clock,
                                 snapshot_deadline=5.0)
        report = campaign.run()
        assert report.targets[0].status == STATUS_INCOMPLETE
        assert store.has_checkpoint("linx", 4, DATE)
        return generator.dictionary, report.targets[0].peers_collected

    def test_checkpoint_records_dictionary_digest(
            self, mounts, tmp_path, lg_world):
        server = start_server(mounts)
        store = DatasetStore(tmp_path / "ds")
        with server.serve() as url:
            dictionary, _ = self._parked(store, url, lg_world)
        checkpoint = store.load_checkpoint("linx", 4, DATE)
        assert checkpoint["dictionary_digest"] == dictionary.digest()

    def test_unchanged_scheme_still_merges(self, mounts, tmp_path,
                                           lg_world):
        server = start_server(mounts)
        store = DatasetStore(tmp_path / "ds")
        with server.serve() as url:
            _dictionary, checkpointed = self._parked(store, url,
                                                     lg_world)
            resumed = make_campaign(store, url).run(resume=True)
        target = resumed.targets[0]
        assert target.status == STATUS_COMPLETE
        assert target.peers_resumed == checkpointed
        assert target.checkpoint_discarded is None

    def test_drifted_scheme_restarts_target(self, mounts, tmp_path,
                                            lg_world):
        from repro.ixp.dictionary import CommunityDictionary

        server = start_server(mounts)
        store = DatasetStore(tmp_path / "ds")
        with server.serve() as url:
            dictionary, checkpointed = self._parked(store, url,
                                                    lg_world)
            assert checkpointed > 0

            # the IXP re-documents its scheme while the target is
            # parked: same IXP, one entry fewer → different digest
            drifted = CommunityDictionary.from_dict({
                **dictionary.to_dict(),
                "entries": dictionary.to_dict()["entries"][:-1]})
            assert drifted.digest() != dictionary.digest()
            store.save_dictionary("linx", drifted)

            resumed = make_campaign(store, url).run(resume=True)
        target = resumed.targets[0]
        # restarted clean: nothing merged from the stale checkpoint
        assert target.checkpoint_discarded == "dictionary_drift"
        assert target.peers_resumed == 0
        assert target.status == STATUS_COMPLETE
        assert target.to_dict()["checkpoint_discarded"] == \
            "dictionary_drift"
        # the discarded checkpoint is gone, the snapshot is complete
        assert not store.has_checkpoint("linx", 4, DATE)
        snapshot = store.load_snapshot("linx", 4, DATE)
        assert snapshot.meta["campaign"]["resumed_peers"] == 0

    def test_legacy_checkpoint_without_digest_still_merges(
            self, mounts, tmp_path):
        """A checkpoint that records no digest cannot be verified and
        must keep merging exactly as before."""
        server = start_server(mounts)
        store = DatasetStore(tmp_path / "ds")
        with server.serve() as url:
            clock = FakeClock(tick=1.0)
            campaign = make_campaign(store, url, clock=clock,
                                     snapshot_deadline=5.0)
            report = campaign.run()
            checkpointed = report.targets[0].peers_collected
            # strip the digest: rewrite the journal as one genesis
            # segment without it
            checkpoint = store.load_checkpoint("linx", 4, DATE)
            del checkpoint["dictionary_digest"]
            store.delete_checkpoint("linx", 4, DATE)
            store.save_checkpoint("linx", 4, DATE, checkpoint)
            assert "dictionary_digest" not in store.load_checkpoint(
                "linx", 4, DATE)

            resumed = make_campaign(store, url).run(resume=True)
        target = resumed.targets[0]
        assert target.peers_resumed == checkpointed
        assert target.checkpoint_discarded is None
