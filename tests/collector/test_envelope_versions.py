"""Stores written with version-1 and version-2 envelopes side by side.

Version 2 hashes the payload bytes as written; version 1 hashed the
payload's canonical re-encoding. Every version-1 artefact must keep
reading exactly as it did — same payloads, same digests, hence the
same aggregate-cache keys, content addresses and ETags — and a store
written as version 2 from the same snapshots must give the same
analysis output. Version-1 artefacts are written with the test-only
:func:`~tests.support.encode_v1_artefact`.
"""

import gzip
import json
import shutil
from unittest import mock

import pytest

from repro.collector import (
    CrashSchedule,
    DatasetStore,
    SimulatedCrash,
    Snapshot,
    fsck_store,
    integrity,
    store as store_module,
)
from repro.collector.campaign import (
    STATUS_COMPLETE,
    CampaignConfig,
    CampaignTarget,
    CollectionCampaign,
)
from repro.collector.manifest import MANIFEST_NAME, Manifest
from repro.core import Study
from repro.core.engine import AggregateCache
from repro.core.export import artefact_names, export_study_json
from repro.lg import LookingGlassServer
from repro.query import QueryService

from ..support import envelope_version, writing_v1

IXPS = ("linx", "decix-fra")
FAMILIES = (4, 6)
DAYS = (0, 7)


@pytest.fixture(scope="module")
def snapshots(linx_generator, decix_generator):
    return [generator.snapshot(family, day, degraded=False)
            for generator in (linx_generator, decix_generator)
            for family in FAMILIES for day in DAYS]


@pytest.fixture(scope="module")
def dictionaries(linx_generator, decix_generator):
    return {generator.profile.key: generator.dictionary
            for generator in (linx_generator, decix_generator)}


def build_store(root, snapshots, dictionaries):
    store = DatasetStore(root)
    for ixp, dictionary in dictionaries.items():
        store.save_dictionary(ixp, dictionary)
    for snapshot in snapshots:
        store.save_snapshot(snapshot)
    return store


@pytest.fixture(scope="module")
def templates(tmp_path_factory, snapshots, dictionaries):
    """A version-1 and a version-2 store of the same snapshots, built
    once; tests get copies."""
    root = tmp_path_factory.mktemp("envelopes")
    with writing_v1():
        build_store(root / "v1", snapshots, dictionaries)
    build_store(root / "v2", snapshots, dictionaries)
    return root


def copy_store(templates, tmp_path, version):
    root = tmp_path / f"v{version}"
    shutil.copytree(templates / f"v{version}", root)
    return DatasetStore(root)


@pytest.fixture()
def v1_store(templates, tmp_path):
    return copy_store(templates, tmp_path, 1)


@pytest.fixture()
def v2_store(templates, tmp_path):
    return copy_store(templates, tmp_path, 2)


def routes():
    """Every ``/v1/*`` route, with each parameter value it serves."""
    named = [("healthz", {}), ("ixps", {}), ("keys", {}),
             ("tables", {}), ("figures", {}), ("export", {})]
    named += [("table", {"table": str(t)}) for t in (1, 2, 3, 4)]
    named += [("figure", {"fig": name}) for name in artefact_names()
              if name.startswith("fig")]
    named += [("aggregate", {"ixp": ixp, "family": str(family)})
              for ixp in IXPS for family in FAMILIES]
    return named


def serve_all(store):
    service = QueryService(store, ixps=IXPS, families=FAMILIES)
    served = {}
    for name, params in routes():
        response = service.respond(name, params)
        assert response.status == 200, (name, params, response.body)
        served[(name, tuple(params.items()))] = (response.body,
                                                 response.etag)
    return served


def canonical_digests(decode):
    """*decode* answering, for every artefact, with the version-1
    rule's digest — what every read returned before version 2."""
    def read(data, **kwargs):
        payload, _digest, verified = decode(data, **kwargs)
        return payload, integrity.payload_digest(payload), verified
    return read


class TestVersion1Store:
    def test_reads_the_same_snapshots_and_digests(self, v1_store,
                                                  snapshots):
        for snapshot in snapshots:
            key = (snapshot.ixp, snapshot.family, snapshot.captured_on)
            path = v1_store._snapshot_path(*key)
            assert envelope_version(path.read_bytes()) == 1
            loaded, digest = v1_store.read_snapshot(*key)
            assert loaded.to_dict() == snapshot.to_dict()
            payload = json.loads(gzip.decompress(
                path.read_bytes()))["payload"]
            assert digest == integrity.payload_digest(payload) \
                == v1_store.snapshot_digest(*key)

    def test_fsck_is_clean_before_and_after_a_v2_write(self, v1_store):
        assert fsck_store(v1_store).clean
        manifest = v1_store.root / "linx" / MANIFEST_NAME
        assert envelope_version(manifest.read_bytes()) == 1
        # the next save rewrites the manifest as version 2; the v1
        # entries it carries stay valid
        v1_store.save_snapshot(Snapshot(ixp="linx", family=4,
                                        captured_on="2030-01-01"))
        assert envelope_version(manifest.read_bytes()) == 2
        assert fsck_store(v1_store).clean

    def test_bodies_and_etags_are_the_version_1_readers(self, v1_store,
                                                        tmp_path):
        """Served as the version-1 reader served it: reads answering
        with the canonical digest give byte-identical bodies and the
        same ETags."""
        shutil.copytree(v1_store.root, tmp_path / "twin")
        twin = DatasetStore(tmp_path / "twin")
        served = serve_all(v1_store)
        patched = canonical_digests(integrity.decode_artefact)
        with mock.patch.object(store_module, "decode_artefact",
                               patched), \
                mock.patch("repro.collector.manifest.decode_artefact",
                           patched):
            assert serve_all(twin) == served

    def test_export_equals_the_in_memory_study(self, v1_store, v2_store,
                                               snapshots, dictionaries,
                                               tmp_path):
        latest = {}
        for snapshot in snapshots:
            latest[(snapshot.ixp, snapshot.family)] = snapshot
        reference = Study.from_snapshots(latest.values(),
                                         dictionaries=dictionaries)
        exports = [export_study_json(study, tmp_path / f"{name}.json",
                                     FAMILIES).read_bytes()
                   for name, study in (
                       ("reference", reference),
                       ("v1", Study.from_store(v1_store, ixps=IXPS,
                                               families=FAMILIES)),
                       ("v2", Study.from_store(v2_store, ixps=IXPS,
                                               families=FAMILIES)))]
        assert exports[1] == exports[0]
        assert exports[2] == exports[0]


class TestVersion2Store:
    def test_same_bundle_and_variation_rows_as_version_1(self,
                                                         v1_store,
                                                         v2_store):
        """Only what carries a digest moves: every ETag, and the
        ``/v1/healthz``, ``/v1/keys`` and aggregate bodies (the
        ``dataset`` fingerprint, content addresses and cache keys).
        The export bundle, Tables 1–4 and figures are byte-identical,
        and so are the aggregates' counters."""
        old, new = serve_all(v1_store), serve_all(v2_store)
        assert old.keys() == new.keys()
        for route, (body, etag) in old.items():
            assert new[route][1] != etag, route
            if route[0] in ("healthz", "keys", "aggregate"):
                assert new[route][0] != body, route
            else:
                assert new[route][0] == body, route
            if route[0] == "aggregate":
                assert json.loads(new[route][0])["aggregate"] \
                    == json.loads(body)["aggregate"], route
        for table in ("3", "4"):
            route = ("table", (("table", table),))
            assert json.loads(new[route][0]), route

    def test_every_artefact_is_version_2(self, v2_store):
        files = [p for p in v2_store.root.rglob("*")
                 if p.name.endswith((".json", ".json.gz"))]
        assert files
        assert {envelope_version(p.read_bytes()) for p in files} == {2}


class TestAggregateCache:
    def test_entry_cached_under_a_v1_key_still_hits(self, v1_store,
                                                    dictionaries):
        with writing_v1():
            study = Study.from_store(v1_store, ixps=IXPS,
                                     families=FAMILIES,
                                     cache=AggregateCache(v1_store))
            for family in FAMILIES:
                study.aggregates(family)  # writes the cache entries
        entries = sorted(v1_store.root.glob("*/cache/*.agg.json.gz"))
        assert len(entries) == len(IXPS) * len(FAMILIES)
        assert {envelope_version(p.read_bytes()) for p in entries} \
            == {1}
        cache = AggregateCache(v1_store)
        for ixp in IXPS:
            for family in FAMILIES:
                assert cache.probe(ixp, family,
                                   dictionaries[ixp]) is not None
        # a version-2 read of the whole study builds nothing new
        study = Study.from_store(v1_store, ixps=IXPS, families=FAMILIES,
                                 cache=AggregateCache(v1_store))
        for family in FAMILIES:
            study.aggregates(family)
        assert sorted(v1_store.root.glob("*/cache/*.agg.json.gz")) \
            == entries


class TestPublishAcrossVersions:
    """``publish_snapshot_file`` over a date already published with a
    version-1 envelope, as dispatch merges a version-2 staging store
    into an older tree."""

    def _staged(self, tmp_path, snapshot):
        staging = DatasetStore(tmp_path / "staging")
        return staging.save_snapshot(snapshot)

    def test_equal_payload_is_an_idempotent_success(self, v1_store,
                                                    snapshots, tmp_path):
        snapshot = snapshots[0]
        key = (snapshot.ixp, snapshot.family, snapshot.captured_on)
        published = v1_store._snapshot_path(*key)
        before = published.read_bytes()
        staged = self._staged(tmp_path, snapshot)
        assert envelope_version(staged.read_bytes()) == 2

        assert v1_store.publish_snapshot_file(*key, staged) == published
        assert published.read_bytes() == before
        entry = Manifest.load(v1_store.root / snapshot.ixp).get(
            published.relative_to(v1_store.root / snapshot.ixp)
            .as_posix())
        assert entry["sha256"] == integrity.decode_artefact(
            before, kind="snapshot", gz=True)[1]
        assert entry["size"] == len(before)
        assert fsck_store(v1_store).clean

    def test_different_payload_is_still_refused(self, v1_store,
                                                snapshots, tmp_path):
        snapshot = snapshots[0]
        key = (snapshot.ixp, snapshot.family, snapshot.captured_on)
        published = v1_store._snapshot_path(*key)
        before = published.read_bytes()
        other = Snapshot(ixp=snapshot.ixp, family=snapshot.family,
                         captured_on=snapshot.captured_on)
        staged = self._staged(tmp_path, other)

        assert v1_store.publish_snapshot_file(*key, staged) is None
        assert published.read_bytes() == before
        assert fsck_store(v1_store).clean


# -- checkpoint journals ---------------------------------------------------

DATE = "2021-10-04"
IXP, FAMILY = "linx", 4


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


@pytest.fixture(scope="module")
def lg_url(lg_world):
    server = LookingGlassServer({(IXP, FAMILY): lg_world(IXP)[1]},
                                rate_per_second=100_000, burst=100_000)
    with server.serve() as url:
        yield url


def run_campaign(root, url, *, resume, crash_after=None):
    """One campaign run on a fresh store object over *root* (so resume
    replays the journal from disk); with *crash_after* N, it dies
    before writing its (N+1)th checkpoint segment."""
    store = DatasetStore(root)
    if crash_after is not None:
        store.crash_schedule = CrashSchedule(label="checkpoint:begin",
                                             occurrence=crash_after + 1)
    clock = FakeClock()
    campaign = CollectionCampaign(store, CampaignConfig(
        base_url=url, targets=[CampaignTarget(ixp=IXP, family=FAMILY)],
        captured_on=DATE, checkpoint_every=1),
        clock=clock, sleep=clock.sleep)
    if crash_after is not None:
        with pytest.raises(SimulatedCrash):
            campaign.run(resume=resume)
        return None
    return campaign.run(resume=resume)


class TestMixedJournal:
    def test_v1_genesis_then_v2_segments_replay_and_resume(
            self, lg_url, tmp_path):
        control = tmp_path / "control"
        assert run_campaign(control, lg_url, resume=False).complete

        root = tmp_path / "ds"
        with writing_v1():
            run_campaign(root, lg_url, resume=False, crash_after=1)
        run_campaign(root, lg_url, resume=True, crash_after=2)
        segments = sorted((root / IXP / f"v{FAMILY}"
                           / f"{DATE}.ckpt").glob("*.json.gz"))
        assert [envelope_version(p.read_bytes()) for p in segments] \
            == [1, 2, 2]
        prev = None
        for path in segments:
            payload, digest, _verified = integrity.decode_artefact(
                path.read_bytes(), kind="checkpoint", gz=True)
            assert payload["prev"] == prev, path.name
            prev = digest
        assert fsck_store(DatasetStore(root)).clean

        report = run_campaign(root, lg_url, resume=True)
        target = report.targets[0]
        assert target.status == STATUS_COMPLETE
        assert target.peers_resumed == len(segments)
        resumed = DatasetStore(root).load_snapshot(IXP, FAMILY, DATE)
        expected = DatasetStore(control).load_snapshot(IXP, FAMILY, DATE)
        for part in ("routes", "members"):
            assert resumed.to_dict()[part] == expected.to_dict()[part]
        assert resumed.summary() == expected.summary()
