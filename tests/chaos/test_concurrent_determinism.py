"""Concurrency determinism chaos: the async engine must not change
WHAT a campaign collects, only how fast.

Three contracts, each driven over real HTTP against the simulated LG:

1. **byte determinism under faults** — the same world and the same
   :class:`FaultSchedule` collected serially and with the
   ``io="async"`` event-loop engine must produce byte-identical
   snapshot files, equivalent reports, and identical analysis output
   (``Study.table1``);
2. **crash/resume under concurrency** — an async campaign killed at a
   checkpoint boundary must leave a repairable store and a resumable
   checkpoint, and an async ``--resume`` must converge to the
   uninterrupted serial control snapshot;
3. **fault survival under concurrency** — an outage window plus
   malformed payloads against an async campaign must end in a defined
   terminal state with the failure taxonomy fully reported, exactly as
   the serial engine does.

The byte test recycles the first server's port for the second run so
both snapshots record the same ``meta["source"]`` URL.
"""

import pytest

from repro.collector import (
    CrashSchedule,
    DatasetStore,
    SimulatedCrash,
    fsck_store,
)
from repro.collector.campaign import (
    STATUS_COMPLETE,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_INCOMPLETE,
    CampaignConfig,
    CampaignTarget,
    CollectionCampaign,
)
from repro.core import Study
from repro.lg import FaultSchedule, LookingGlassServer
from repro.lg.client import FAILURE_CLASSES

DATE = "2021-10-04"


def make_campaign(store, url, **kwargs):
    """A real-clock campaign tuned so fault recovery is fast: tiny
    backoff, a breaker that re-probes within 50ms, and a generous
    per-peer budget so transient fault windows cannot permanently
    lose a peer."""
    kwargs.setdefault("peer_attempts", 4)
    kwargs.setdefault("breaker_reset", 0.05)
    config = CampaignConfig(
        base_url=url,
        targets=[CampaignTarget(ixp="linx", family=4)],
        captured_on=DATE,
        checkpoint_every=4,
        backoff_base=0.001,
        backoff_cap=0.01,
        **kwargs)
    return CollectionCampaign(store, config)


def start_server(route_server, faults=None, port=0, **kwargs):
    kwargs.setdefault("rate_per_second", 100_000)
    kwargs.setdefault("burst", 100_000)
    return LookingGlassServer({("linx", 4): route_server},
                              faults=faults, port=port, **kwargs)


def report_essence(report):
    """The report fields that must be identical across engines —
    everything except wall-clock timings."""
    payload = report.to_dict()
    for target in payload["targets"]:
        target.pop("elapsed")
        target.pop("snapshot_path")  # differs only by store root
    return payload


#: the concurrent engine; the serial default is the control it must be
#: byte-equal to.
ASYNC = {"io": "async", "max_inflight": 8}


class TestByteDeterminism:
    def test_engines_write_identical_bytes_under_faults(
            self, lg_world, tmp_path):
        """Same seed, same FaultSchedule → the async engine's snapshot
        file, report, and analysis tables equal the serial run's.
        Faults land on *different* requests per engine (request order
        differs), but every malformed payload is retried to recovery,
        so both engines converge to the same complete bytes."""
        _generator, route_server = lg_world("linx")
        stores = {}
        reports = {}
        port = 0
        for label, kwargs in (("serial", {}), ("async", ASYNC)):
            # a fresh schedule per run: the fault counter is part of
            # the "same inputs" contract
            faults = FaultSchedule(malformed_every=7)
            server = start_server(route_server, faults=faults, port=port)
            store = DatasetStore(tmp_path / label)
            with server.serve() as url:
                reports[label] = make_campaign(
                    store, url, **kwargs).run()
            # recycle the ephemeral port so both snapshots carry the
            # same source URL
            port = server.port
            stores[label] = store

        assert reports["serial"].complete and reports["async"].complete
        assert report_essence(reports["async"]) \
            == report_essence(reports["serial"])

        serial_bytes = stores["serial"]._snapshot_path(
            "linx", 4, DATE).read_bytes()
        async_bytes = stores["async"]._snapshot_path(
            "linx", 4, DATE).read_bytes()
        assert async_bytes == serial_bytes

        tables = {
            label: Study.from_store(stores[label], ixps=("linx",),
                                    families=(4,)).table1()
            for label in ("serial", "async")}
        assert tables["async"] == tables["serial"]


class TestConcurrentCrashSweep:
    def test_async_campaign_crash_at_checkpoint_then_resume(
            self, lg_world, tmp_path):
        """Kill an ``io="async"`` campaign at successive checkpoint
        boundaries; every resume (also async) must converge to the
        uninterrupted serial control."""
        _generator, route_server = lg_world("linx")
        server = start_server(route_server)
        with server.serve() as url:
            control_store = DatasetStore(tmp_path / "control")
            control = make_campaign(control_store, url).run()
            assert control.complete
            control_snapshot = control_store.load_snapshot(
                "linx", 4, DATE)
            control_rows = Study.from_store(
                control_store, ixps=("linx",), families=(4,)).table1()

            for occurrence in (1, 2, 3):
                store = DatasetStore(
                    tmp_path / f"crash{occurrence}",
                    crash_schedule=CrashSchedule(
                        label="checkpoint:temp",
                        occurrence=occurrence))
                with pytest.raises(SimulatedCrash):
                    make_campaign(store, url, **ASYNC).run()
                store.crash_schedule = None

                fsck_store(store, repair=True)
                assert fsck_store(store).clean, occurrence

                resumed = make_campaign(store, url,
                                        **ASYNC).run(resume=True)
                assert resumed.complete, occurrence
                snapshot = store.load_snapshot("linx", 4, DATE)
                assert snapshot.summary() == control_snapshot.summary()
                rows = Study.from_store(store, ixps=("linx",),
                                        families=(4,)).table1()
                assert rows == control_rows, occurrence

    def test_async_crash_leaves_no_unclosed_socket(
            self, lg_world, tmp_path, monkeypatch):
        """A crash escaping an async run mid-target (page fetches still
        in flight) must not leave their sockets to the garbage
        collector: every pooled connection is closed by the time the
        exception reaches the caller."""
        import gc
        import warnings

        from repro.net import aio

        pools = []
        original_init = aio.ConnectionPool.__init__

        def recording_init(pool, *args, **kwargs):
            original_init(pool, *args, **kwargs)
            pools.append(pool)

        monkeypatch.setattr(aio.ConnectionPool, "__init__", recording_init)
        _generator, route_server = lg_world("linx")
        server = start_server(route_server)
        with server.serve() as url, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            store = DatasetStore(
                tmp_path / "crash",
                crash_schedule=CrashSchedule(label="checkpoint:temp",
                                             occurrence=1))
            campaign = make_campaign(store, url, **ASYNC)
            with pytest.raises(SimulatedCrash):
                campaign.run()
            assert len(pools) == 1 and pools[0].opened
            assert pools[0].open_connections() == 0
            del campaign
            pools.clear()
            gc.collect()
        leaked = [w for w in caught
                  if issubclass(w.category, ResourceWarning)]
        assert not leaked, [str(w.message) for w in leaked]


class TestConcurrentFaultSurvival:
    def test_concurrent_campaign_survives_outage_and_malformed(
            self, lg_world, tmp_path):
        """An outage window long enough to trip the breaker, plus
        periodic malformed payloads, against the async engine sharing
        one client/breaker across page fetches: the run must end in a
        defined state with the taxonomy fully reported — never an
        unhandled exception."""
        _generator, route_server = lg_world("linx")
        faults = FaultSchedule(outage_windows=[(5, 13)],
                               malformed_every=17)
        server = start_server(route_server, faults=faults,
                              rate_per_second=2000, burst=25)
        store = DatasetStore(tmp_path / "ds")
        with server.serve() as url:
            report = make_campaign(store, url,
                                   max_retries=1,
                                   breaker_threshold=2,
                                   **ASYNC).run()
        target = report.targets[0]
        assert target.status in (STATUS_COMPLETE, STATUS_DEGRADED,
                                 STATUS_INCOMPLETE, STATUS_FAILED)
        assert set(report.failure_counts) == set(FAILURE_CLASSES)
        if target.status in (STATUS_COMPLETE, STATUS_DEGRADED):
            snapshot = store.load_snapshot("linx", 4, DATE)
            assert set(snapshot.meta["campaign"]["failure_counts"]) \
                == set(FAILURE_CLASSES)
            # degraded membership only covers collected peers
            failed = set(snapshot.meta["peers_failed"])
            assert failed.isdisjoint(snapshot.member_asns())
