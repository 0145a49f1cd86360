"""Tests for the on-disk dataset store, including its failure paths:
every damage class must surface as a typed IntegrityError, move the
file to quarantine (never delete it), and leave the rest of the store
loadable."""

import contextlib
import gzip
import json
import threading

import pytest

from repro.collector import (
    ChecksumMismatchError,
    DatasetStore,
    IntegrityError,
    MalformedArtefactError,
    SchemaDriftError,
    Snapshot,
    TruncatedArtefactError,
)
from repro.io.faultfs import active_fs
from repro.ixp import dictionary_for, get_profile

from ..support import envelope_version, writing_v1


def snapshot(date, ixp="linx", family=4):
    return Snapshot(ixp=ixp, family=family, captured_on=date)


@pytest.fixture()
def store(tmp_path):
    return DatasetStore(tmp_path / "dataset")


class TestSnapshots:
    def test_save_and_load(self, store):
        store.save_snapshot(snapshot("2021-07-19"))
        loaded = store.load_snapshot("linx", 4, "2021-07-19")
        assert loaded.key == "linx/v4/2021-07-19"

    def test_dates_sorted(self, store):
        for date in ("2021-08-02", "2021-07-19", "2021-07-26"):
            store.save_snapshot(snapshot(date))
        assert store.snapshot_dates("linx", 4) == [
            "2021-07-19", "2021-07-26", "2021-08-02"]

    def test_latest(self, store):
        for date in ("2021-07-19", "2021-10-04"):
            store.save_snapshot(snapshot(date))
        assert store.latest_snapshot("linx", 4).captured_on == "2021-10-04"

    def test_latest_empty_is_none(self, store):
        assert store.latest_snapshot("linx", 4) is None

    def test_families_separated(self, store):
        store.save_snapshot(snapshot("2021-07-19", family=4))
        store.save_snapshot(snapshot("2021-07-19", family=6))
        assert store.snapshot_dates("linx", 4) == ["2021-07-19"]
        assert store.snapshot_dates("linx", 6) == ["2021-07-19"]

    def test_delete(self, store):
        store.save_snapshot(snapshot("2021-07-19"))
        assert store.delete_snapshot("linx", 4, "2021-07-19")
        assert not store.delete_snapshot("linx", 4, "2021-07-19")
        assert store.snapshot_dates("linx", 4) == []

    def test_iter_snapshots(self, store):
        for date in ("2021-07-19", "2021-07-26"):
            store.save_snapshot(snapshot(date))
        assert [s.captured_on for s in store.iter_snapshots("linx", 4)] == \
            ["2021-07-19", "2021-07-26"]

    def test_ixps_listing(self, store):
        store.save_snapshot(snapshot("2021-07-19", ixp="linx"))
        store.save_snapshot(snapshot("2021-07-19", ixp="amsix"))
        assert store.ixps() == ["amsix", "linx"]

    def test_known_digest_skips_only_the_decode(self, store,
                                                monkeypatch):
        from repro.io import columnar
        store.save_snapshot(snapshot("2021-07-19"))
        loaded, digest = store.read_snapshot("linx", 4, "2021-07-19")
        assert loaded.captured_on == "2021-07-19"
        monkeypatch.setattr(columnar, "decode_snapshot_payload",
                            lambda payload: pytest.fail("decoded"))
        assert store.read_snapshot("linx", 4, "2021-07-19",
                                   known={digest}) == (None, digest)

    def test_known_digest_never_answers_for_damaged_bytes(self, store):
        path = store.save_snapshot(snapshot("2021-07-19"))
        digest = store.snapshot_digest("linx", 4, "2021-07-19")
        document = json.loads(gzip.decompress(path.read_bytes()))
        document["payload"]["ixp"] = "evil"
        path.write_bytes(gzip.compress(
            json.dumps(document).encode("utf-8")))
        with pytest.raises(ChecksumMismatchError):
            store.read_snapshot("linx", 4, "2021-07-19", known={digest})
        assert not path.exists()
        assert [r.original for r in store.quarantine_records()] == [
            "linx/v4/2021-07-19.json.gz"]

    def test_snapshot_series_pairs_dates_with_digests(self, store):
        for date in ("2021-07-26", "2021-07-19"):
            store.save_snapshot(snapshot(date))
        store.save_snapshot(snapshot("2021-07-19", family=6))
        unvouched = store._snapshot_path("linx", 4, "2021-07-26")
        store._forget_manifest_entry(unvouched)
        series = store.snapshot_series("linx", (4, 6))
        assert series == {
            4: (("2021-07-19",
                 store.snapshot_digest("linx", 4, "2021-07-19")),
                ("2021-07-26", None)),
            6: (("2021-07-19",
                 store.snapshot_digest("linx", 6, "2021-07-19")),),
        }
        assert None not in (series[4][0][1], series[6][0][1])

    def test_summary_table(self, store):
        store.save_snapshot(snapshot("2021-07-19"))
        rows = store.summary_table("linx", 4)
        assert rows[0]["date"] == "2021-07-19"
        assert rows[0]["routes"] == 0


class TestIntegrityFailures:
    """One test per damage class; each asserts the taxonomy, the
    quarantine move, and that the error carries its record."""

    @pytest.fixture()
    def saved(self, store):
        path = store.save_snapshot(snapshot("2021-07-19"))
        return store, path

    def _assert_quarantined(self, store, path, error):
        assert not path.exists(), "damaged file left in place"
        records = store.quarantine_records()
        assert len(records) == 1
        record = records[0]
        assert record.damage_class == error.damage_class
        assert record.original == \
            path.relative_to(store.root).as_posix()
        moved = store.root / record.moved_to
        assert moved.exists(), "quarantine must move, not delete"
        assert error.record is not None
        assert error.record.moved_to == record.moved_to

    def test_truncated_gzip(self, saved):
        store, path = saved
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(TruncatedArtefactError) as excinfo:
            store.load_snapshot("linx", 4, "2021-07-19")
        self._assert_quarantined(store, path, excinfo.value)

    def test_non_gzip_bytes(self, saved):
        store, path = saved
        path.write_bytes(b"this was never a gzip stream")
        with pytest.raises(MalformedArtefactError) as excinfo:
            store.load_snapshot("linx", 4, "2021-07-19")
        self._assert_quarantined(store, path, excinfo.value)

    def test_bad_json_inside_valid_gzip(self, saved):
        store, path = saved
        path.write_bytes(gzip.compress(b"{not json"))
        with pytest.raises(MalformedArtefactError) as excinfo:
            store.load_snapshot("linx", 4, "2021-07-19")
        self._assert_quarantined(store, path, excinfo.value)

    def test_gzip_crc_mismatch(self, saved):
        """A flipped bit in the gzip CRC trailer: framing parses but
        the payload cannot be trusted."""
        store, path = saved
        data = bytearray(path.read_bytes())
        data[-5] ^= 0xFF  # inside the 8-byte CRC32/ISIZE trailer
        path.write_bytes(bytes(data))
        with pytest.raises(ChecksumMismatchError) as excinfo:
            store.load_snapshot("linx", 4, "2021-07-19")
        self._assert_quarantined(store, path, excinfo.value)

    def test_envelope_digest_mismatch(self, saved):
        """A tampered payload under an intact envelope digest."""
        store, path = saved
        document = json.loads(gzip.decompress(path.read_bytes()))
        document["payload"]["ixp"] = "evil"
        path.write_bytes(gzip.compress(
            json.dumps(document).encode("utf-8")))
        with pytest.raises(ChecksumMismatchError) as excinfo:
            store.load_snapshot("linx", 4, "2021-07-19")
        self._assert_quarantined(store, path, excinfo.value)

    def test_schema_drift(self, saved):
        store, path = saved
        path.write_bytes(gzip.compress(b'{"unexpected": true}'))
        with pytest.raises(SchemaDriftError) as excinfo:
            store.load_snapshot("linx", 4, "2021-07-19")
        self._assert_quarantined(store, path, excinfo.value)

    @pytest.mark.parametrize("field, value", [
        ("as_path", 5),
        ("as_path", ["64500"]),
        ("communities", [5]),
        ("communities", [{}]),
        ("large_communities", [None]),
    ], ids=["path-int", "path-list", "community-int", "community-dict",
            "large-null"])
    def test_mistyped_route_field_is_schema_drift(self, store, field,
                                                  value):
        """A route field of the wrong JSON type, under an intact
        envelope and manifest entry, is schema drift: typed and
        quarantined, never a raw AttributeError."""
        payload = snapshot("2021-07-19").to_dict()
        route = {"prefix": "203.0.113.0/24", "next_hop": "192.0.2.1",
                 "as_path": "64500", "peer_asn": 64500,
                 "communities": [], "extended_communities": [],
                 "large_communities": []}
        route[field] = value
        payload["routes"] = [route]
        path = store._snapshot_path("linx", 4, "2021-07-19")
        store._write_artefact(path, payload, "snapshot", gz=True)
        with pytest.raises(SchemaDriftError) as excinfo:
            store.load_snapshot("linx", 4, "2021-07-19")
        self._assert_quarantined(store, path, excinfo.value)

    def test_legacy_file_disagreeing_with_manifest(self, saved):
        """A pre-envelope file cannot vouch for itself; when the
        manifest disagrees, the manifest wins."""
        store, path = saved
        path.write_bytes(gzip.compress(json.dumps(
            snapshot("2021-07-19", ixp="amsix").to_dict()
        ).encode("utf-8")))
        with pytest.raises(ChecksumMismatchError) as excinfo:
            store.load_snapshot("linx", 4, "2021-07-19")
        self._assert_quarantined(store, path, excinfo.value)

    def test_missing_manifest_entry_still_loads(self, saved):
        """An enveloped artefact vouches for itself even when its
        manifest entry is gone (fsck reports the drift separately)."""
        store, path = saved
        store._forget_manifest_entry(path)
        loaded = store.load_snapshot("linx", 4, "2021-07-19")
        assert loaded.captured_on == "2021-07-19"

    def test_self_verified_read_leaves_the_manifest_unread(
            self, saved, monkeypatch):
        """Only a legacy file needs the manifest as its witness: a
        verified read of a version-2 snapshot reads the snapshot's
        bytes and nothing else."""
        store, path = saved
        assert envelope_version(path.read_bytes()) == 2
        fs = active_fs()
        read = fs.read_bytes
        opened = []

        def recording(target):
            opened.append(str(target))
            return read(target)

        monkeypatch.setattr(fs, "read_bytes", recording)
        loaded = store.load_snapshot("linx", 4, "2021-07-19")
        assert loaded.captured_on == "2021-07-19"
        assert opened == [str(path)]

    def test_iter_and_latest_skip_damage(self, store):
        for date in ("2021-07-19", "2021-07-26", "2021-08-02"):
            store.save_snapshot(snapshot(date))
        bad = store._snapshot_path("linx", 4, "2021-08-02")
        bad.write_bytes(b"garbage")
        damaged = []
        dates = [s.captured_on
                 for s in store.iter_snapshots("linx", 4,
                                               damaged=damaged)]
        assert dates == ["2021-07-19", "2021-07-26"]
        assert [r.damage_class for r in damaged] == ["malformed"]
        # latest falls back to the newest loadable date
        assert store.latest_snapshot("linx", 4).captured_on \
            == "2021-07-26"

    def test_damaged_checkpoint_returns_none(self, store):
        path = store.save_checkpoint("linx", 4, "2021-07-19",
                                     {"version": 2, "peers": {}})
        path.write_bytes(path.read_bytes()[:20])
        assert store.load_checkpoint("linx", 4, "2021-07-19") is None
        assert store.quarantine_records()
        assert not path.exists()

    def test_damaged_dictionary_quarantined(self, store):
        store.save_dictionary("amsix",
                              dictionary_for(get_profile("amsix")))
        path = store._dictionary_path("amsix")
        path.write_text("{broken json")
        with pytest.raises(IntegrityError):
            store.load_dictionary("amsix")
        assert store.quarantine_records()

    def test_no_temp_debris_after_saves(self, store):
        store.save_snapshot(snapshot("2021-07-19"))
        for _flush in range(2):
            store.save_checkpoint("linx", 4, "2021-07-19",
                                  {"version": 2, "peers": {}})
        store.save_dictionary("linx", dictionary_for(get_profile("linx")))
        assert not list(store.root.rglob("*.tmp"))

    def test_failed_write_cleans_its_temp_file(self, store):
        calls = []

        def explode(label):
            calls.append(label)
            if label == "snapshot:temp":
                raise OSError("disk on fire")

        store.crash_schedule = type("Hook", (), {"check": staticmethod(
            explode)})()
        with pytest.raises(OSError):
            store.save_snapshot(snapshot("2021-07-19"))
        assert "snapshot:temp" in calls
        assert not list(store.root.rglob("*.tmp"))
        assert not store.has_snapshot("linx", 4, "2021-07-19")

    def test_concurrent_save_and_load_same_path(self, store):
        """Atomic publishes mean a reader can never observe a torn
        file, even while a writer is rewriting the same date."""
        store.save_snapshot(snapshot("2021-07-19"))
        errors = []
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                try:
                    store.save_snapshot(snapshot("2021-07-19"))
                except Exception as error:  # pragma: no cover
                    errors.append(error)
                    return

        def reader():
            for _ in range(40):
                try:
                    loaded = store.load_snapshot("linx", 4, "2021-07-19")
                    assert loaded.captured_on == "2021-07-19"
                except Exception as error:  # pragma: no cover
                    errors.append(error)
                    return

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader),
                   threading.Thread(target=reader)]
        for thread in threads[1:]:
            thread.start()
        threads[0].start()
        for thread in threads[1:]:
            thread.join()
        stop.set()
        threads[0].join()
        assert not errors


    def test_two_writers_of_one_path_leave_a_matching_manifest(
            self, tmp_path):
        """Two store instances on one root, as two processes would
        have. Writer A pauses after renaming its file into place and
        before recording it; writer B rewrites the same date
        meanwhile. The file's digest must still equal its manifest
        entry: the write and its record are one critical section."""
        from repro.collector.fsck import fsck_store
        from repro.collector.integrity import decode_artefact
        from repro.collector.manifest import Manifest

        class PauseAfterRename:
            def __init__(self):
                self.paused = threading.Event()
                self.resume = threading.Event()

            def check(self, label):
                if label == "snapshot:renamed" \
                        and not self.paused.is_set():
                    self.paused.set()
                    # B, if it can, finishes its whole write now; with
                    # the write inside the guard it cannot, and A goes
                    # on alone after the bound.
                    self.resume.wait(timeout=1.0)

        root = tmp_path / "dataset"
        hook = PauseAfterRename()
        writer_a = DatasetStore(root, crash_schedule=hook)
        writer_b = DatasetStore(root)
        date = "2021-07-19"

        def write_b():
            writer_b.save_snapshot(Snapshot(
                ixp="linx", family=4, captured_on=date,
                meta={"writer": "b"}))
            hook.resume.set()

        thread_a = threading.Thread(target=writer_a.save_snapshot, args=(
            Snapshot(ixp="linx", family=4, captured_on=date,
                     meta={"writer": "a"}),))
        thread_a.start()
        assert hook.paused.wait(timeout=30)
        thread_b = threading.Thread(target=write_b)
        thread_b.start()
        thread_a.join(timeout=30)
        thread_b.join(timeout=30)

        path = root / "linx" / "v4" / f"{date}.json.gz"
        _payload, digest, _verified = decode_artefact(
            path.read_bytes(), kind="snapshot", gz=True, path=path)
        entry = Manifest.load(root / "linx").entries["v4/" + path.name]
        assert entry["sha256"] == digest
        report = fsck_store(DatasetStore(root))
        assert report.clean, report.findings


@pytest.fixture(params=[1, 2], ids=["v1", "v2"])
def versioned(request, store):
    """A store holding one snapshot whose envelope (and manifest) is
    version 1 or version 2."""
    with writing_v1() if request.param == 1 else contextlib.nullcontext():
        path = store.save_snapshot(snapshot("2021-07-19"))
    assert envelope_version(path.read_bytes()) == request.param
    return store, path, request.param


class TestDamageAcrossEnvelopeVersions:
    """The damage taxonomy does not depend on the envelope version."""

    def _load_fails(self, store, error_type):
        with pytest.raises(error_type) as excinfo:
            store.load_snapshot("linx", 4, "2021-07-19")
        assert excinfo.value.record is not None  # quarantined
        return excinfo.value

    def test_flipped_compressed_byte_is_checksum_mismatch(self,
                                                          versioned):
        store, path, _version = versioned
        data = bytearray(path.read_bytes())
        data[-5] ^= 0x01  # inside the gzip CRC32/ISIZE trailer
        path.write_bytes(bytes(data))
        self._load_fails(store, ChecksumMismatchError)

    def test_truncated_gzip_is_truncated(self, versioned):
        store, path, _version = versioned
        path.write_bytes(path.read_bytes()[:40])
        self._load_fails(store, TruncatedArtefactError)

    def test_unexpected_object_is_schema_drift(self, versioned):
        store, path, _version = versioned
        path.write_bytes(gzip.compress(b'{"unexpected": true}'))
        self._load_fails(store, SchemaDriftError)

    def test_version_3_head_is_schema_drift(self, versioned):
        store, path, version = versioned
        body = gzip.decompress(path.read_bytes())
        head = b'"version":%d,' % version
        assert head in body
        path.write_bytes(gzip.compress(
            body.replace(head, b'"version":3,', 1)))
        self._load_fails(store, SchemaDriftError)

    def test_reserialised_payload(self, versioned):
        """Re-serialising the same JSON value (here with default
        separators) fails a version-2 envelope, whose digest covers the
        bytes as written; a version-1 envelope, whose digest covers the
        canonical re-encoding, still reads."""
        store, path, version = versioned
        document = json.loads(gzip.decompress(path.read_bytes()))
        path.write_bytes(gzip.compress(json.dumps(document).encode()))
        if version == 2:
            self._load_fails(store, ChecksumMismatchError)
        else:
            loaded = store.load_snapshot("linx", 4, "2021-07-19")
            assert loaded.to_dict() == snapshot("2021-07-19").to_dict()


class TestNameValidation:
    @pytest.mark.parametrize("bad", [
        "../evil", "a/b", "", ".hidden", "linx\x00", "a b",
        "quarantine", "reports",
    ])
    def test_rejects_path_escapes(self, store, bad):
        with pytest.raises(ValueError):
            store.save_snapshot(snapshot("2021-07-19", ixp=bad))

    def test_rejects_bad_family_and_date(self, store):
        with pytest.raises(ValueError):
            store.load_snapshot("linx", 5, "2021-07-19")
        with pytest.raises(ValueError):
            store.load_snapshot("linx", 4, "not-a-date")
        with pytest.raises(ValueError):
            store.load_snapshot("linx", 4, "../../etc/passwd")

    def test_rejects_bad_report_names(self, store):
        with pytest.raises(ValueError):
            store.save_run_report("../oops", {"version": 1,
                                              "kind": "x",
                                              "metrics": {}})


class TestDictionaries:
    def test_roundtrip(self, store):
        dictionary = dictionary_for(get_profile("amsix"))
        store.save_dictionary("amsix", dictionary)
        assert store.has_dictionary("amsix")
        loaded = store.load_dictionary("amsix")
        assert len(loaded) == len(dictionary)
        assert len(loaded.rules()) == len(dictionary.rules())

    def test_missing_dictionary(self, store):
        assert not store.has_dictionary("linx")
        with pytest.raises(FileNotFoundError):
            store.load_dictionary("linx")
