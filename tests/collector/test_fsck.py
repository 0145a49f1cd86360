"""Tests for store auditing and repair (fsck)."""

import contextlib
import gzip
import json

import pytest

from repro.collector import DatasetStore, Snapshot, fsck_store
from repro.collector.manifest import MANIFEST_NAME, Manifest

from ..support import envelope_version, writing_v1

DATES = ("2021-07-19", "2021-07-26", "2021-08-02", "2021-08-09")


@pytest.fixture()
def store(tmp_path):
    store = DatasetStore(tmp_path / "dataset")
    for date in DATES:
        store.save_snapshot(Snapshot(ixp="linx", family=4,
                                     captured_on=date))
    store.save_run_report("analyze", {"version": 1, "kind": "pipeline",
                                      "metrics": {}})
    return store


class TestAudit:
    def test_clean_store(self, store):
        report = fsck_store(store)
        assert report.clean
        assert report.scanned == len(DATES) + 1
        assert report.verified == report.scanned
        assert "clean" in report.format_summary()

    def test_classifies_each_damage_exactly(self, store):
        base = store.root / "linx" / "v4"
        # truncation, garbage, a deleted file behind its manifest
        # entry, and write debris — one finding each, nothing else.
        truncated = base / f"{DATES[0]}.json.gz"
        truncated.write_bytes(truncated.read_bytes()[:30])
        (base / f"{DATES[1]}.json.gz").write_bytes(b"garbage")
        (base / f"{DATES[2]}.json.gz").unlink()
        (base / f".{DATES[3]}.json.gz.123.0.tmp").write_bytes(b"x")

        report = fsck_store(store)
        assert not report.clean
        counts = {cls: count for cls, count in report.counts.items()
                  if count}
        assert counts == {"truncated": 1, "malformed": 1,
                          "missing_file": 1, "orphan_temp": 1}
        # audit-only: nothing moved, nothing repaired
        assert all(f.action is None for f in report.findings)
        assert truncated.exists()
        assert not store.quarantine_records()

    def test_manifest_drift_vs_checksum(self, store):
        """A self-verifying file with a stale ledger entry is drift;
        a legacy file disagreeing with the ledger is damage."""
        scope = store.root / "linx"
        manifest = Manifest.load(scope)
        rel = f"v4/{DATES[0]}.json.gz"
        entry = manifest.get(rel)
        manifest.record(rel, "0" * 64, entry["size"], "snapshot")
        manifest.save()

        legacy = scope / "v4" / f"{DATES[1]}.json.gz"
        payload = Snapshot(ixp="linx", family=4,
                           captured_on=DATES[1]).to_dict()
        payload["meta"] = {"tampered": True}  # digest != manifest's
        legacy.write_bytes(gzip.compress(
            json.dumps(payload).encode("utf-8")))

        report = fsck_store(store)
        counts = {cls: count for cls, count in report.counts.items()
                  if count}
        assert counts == {"manifest_drift": 1, "checksum_mismatch": 1}

    def test_damaged_manifest_reports_only_legacy_files(self, store):
        """Under a damaged manifest an enveloped file vouches for
        itself; a legacy file cannot, so it is still reported."""
        scope = store.root / "linx"
        legacy = scope / "v4" / f"{DATES[0]}.json.gz"
        legacy.write_bytes(gzip.compress(json.dumps(Snapshot(
            ixp="linx", family=4, captured_on=DATES[0]).to_dict(),
        ).encode("utf-8")))
        (scope / MANIFEST_NAME).write_text("not json")

        report = fsck_store(store)
        counts = {cls: count for cls, count in report.counts.items()
                  if count}
        assert counts == {"malformed": 1, "missing_manifest_entry": 1}
        assert report.verified == report.scanned - 1


class TestRepair:
    def test_repair_then_clean(self, store):
        base = store.root / "linx" / "v4"
        damaged = base / f"{DATES[0]}.json.gz"
        damaged.write_bytes(damaged.read_bytes()[:30])
        (base / f"{DATES[1]}.json.gz").unlink()
        (base / f".{DATES[2]}.json.gz.9.9.tmp").write_bytes(b"x")

        report = fsck_store(store, repair=True)
        assert not report.clean
        actions = {f.damage_class: f.action for f in report.findings}
        assert actions == {"truncated": "quarantined",
                           "missing_file": "entry_dropped",
                           "orphan_temp": "quarantined"}
        # quarantine holds the damaged bytes, never deletes them
        assert not damaged.exists()
        records = store.quarantine_records()
        assert {r.damage_class for r in records} \
            == {"truncated", "orphan_temp"}

        second = fsck_store(store)
        assert second.clean, second.format_summary()
        # survivors still load
        assert store.load_snapshot("linx", 4, DATES[2]) is not None
        assert store.load_snapshot("linx", 4, DATES[3]) is not None

    def test_repair_records_missing_manifest_entries(self, store):
        store._forget_manifest_entry(
            store._snapshot_path("linx", 4, DATES[0]))
        report = fsck_store(store, repair=True)
        assert report.counts["missing_manifest_entry"] == 1
        assert fsck_store(store).clean

    def test_repair_rebuilds_destroyed_manifest(self, store):
        (store.root / "linx" / MANIFEST_NAME).write_text("not json")
        report = fsck_store(store, repair=True)
        assert any(f.kind == "manifest" and f.action == "quarantined"
                   for f in report.findings)
        second = fsck_store(store)
        assert second.clean, second.format_summary()
        manifest = Manifest.load(store.root / "linx")
        assert set(manifest.entries) \
            == {f"v4/{d}.json.gz" for d in DATES} | {"dictionary.json"} \
            - {"dictionary.json"}

    def test_report_round_trips_to_json(self, store):
        (store.root / "linx" / "v4" / f"{DATES[0]}.json.gz"
         ).write_bytes(b"junk")
        payload = fsck_store(store).to_dict()
        parsed = json.loads(json.dumps(payload))
        assert parsed["clean"] is False
        assert parsed["counts"] == {"malformed": 1}
        assert parsed["findings"][0]["path"] \
            == f"linx/v4/{DATES[0]}.json.gz"


@pytest.fixture(params=[1, 2], ids=["v1", "v2"])
def versioned_store(request, tmp_path):
    """The ``store`` fixture's contents, every artefact (manifests
    too) written with a version-1 or a version-2 envelope."""
    with writing_v1() if request.param == 1 else contextlib.nullcontext():
        store = DatasetStore(tmp_path / "dataset")
        for date in DATES:
            store.save_snapshot(Snapshot(ixp="linx", family=4,
                                         captured_on=date))
    manifest = store.root / "linx" / MANIFEST_NAME
    assert envelope_version(manifest.read_bytes()) == request.param
    return store, request.param


class TestDamageAcrossEnvelopeVersions:
    def test_each_damage_is_classified(self, versioned_store):
        store, version = versioned_store
        assert fsck_store(store).clean
        base = store.root / "linx" / "v4"
        flipped = base / f"{DATES[0]}.json.gz"
        data = bytearray(flipped.read_bytes())
        data[-5] ^= 0x01  # inside the gzip CRC32/ISIZE trailer
        flipped.write_bytes(bytes(data))
        truncated = base / f"{DATES[1]}.json.gz"
        truncated.write_bytes(truncated.read_bytes()[:30])
        (base / f"{DATES[2]}.json.gz").write_bytes(
            gzip.compress(b'{"unexpected": true}'))
        future = base / f"{DATES[3]}.json.gz"
        future.write_bytes(gzip.compress(
            gzip.decompress(future.read_bytes()).replace(
                b'"version":%d,' % version, b'"version":3,', 1)))

        counts = {cls: count for cls, count
                  in fsck_store(store).counts.items() if count}
        assert counts == {"checksum_mismatch": 1, "truncated": 1,
                          "schema_drift": 2}

    def test_reserialised_v2_payload_is_checksum_mismatch(
            self, versioned_store):
        """The same JSON value with default separators: not the bytes
        a version-2 digest vouches for, still the value a version-1
        digest does."""
        store, version = versioned_store
        path = store.root / "linx" / "v4" / f"{DATES[0]}.json.gz"
        document = json.loads(gzip.decompress(path.read_bytes()))
        path.write_bytes(gzip.compress(json.dumps(document).encode()))
        counts = {cls: count for cls, count
                  in fsck_store(store).counts.items() if count}
        assert counts == ({"checksum_mismatch": 1} if version == 2
                          else {})

    def test_flipped_manifest_payload_byte_is_found_and_repaired(
            self, versioned_store):
        """``MANIFEST.json`` is not gzipped, so no CRC guards it: only
        its envelope digest catches a flipped payload byte."""
        store, _version = versioned_store
        path = store.root / "linx" / MANIFEST_NAME
        data = bytearray(path.read_bytes())
        # one hex digit of the first entry's recorded digest
        at = data.index(b'"sha256":"', data.index(b'"payload":')) + 10
        data[at] = ord("0") if data[at] != ord("0") else ord("1")
        path.write_bytes(bytes(data))

        report = fsck_store(store)
        manifest = [f.damage_class for f in report.findings
                    if f.kind == "manifest"]
        assert manifest == ["checksum_mismatch"]
        # the damaged ledger is the only finding: every file vouches
        # for itself
        assert len(report.findings) == 1
        assert report.verified == len(DATES)
        assert not fsck_store(store, repair=True).clean
        assert fsck_store(store).clean
        assert envelope_version(path.read_bytes()) == 2
        assert store.load_snapshot("linx", 4, DATES[0]) is not None


class TestDispatchReclaim:
    """Orphaned ``leases/`` and ``staging/`` auditing and reclaim."""

    WEEK = 7 * 24 * 3600.0

    def _lease_dir(self, store, name="linx__v4__2021-07-19"):
        unit_dir = store.root / "leases" / name
        unit_dir.mkdir(parents=True)
        (unit_dir / "claim-1.lease.json").write_text("not a lease")
        return unit_dir

    def _staging_dir(self, store, name):
        shard = store.root / "staging" / name
        shard.mkdir(parents=True)
        (shard / "linx").mkdir()
        (shard / "linx" / "partial.json").write_text("{}")
        return shard

    def test_fresh_dispatch_state_is_not_a_finding(self, store):
        self._lease_dir(store)
        self._staging_dir(store, "linx__v4__2021-07-19.t1")
        assert fsck_store(store).clean

    def test_aged_state_is_audited_without_repair(self, store):
        import time

        lease = self._lease_dir(store)
        shard = self._staging_dir(store, "linx__v9__nonsense.t1")
        report = fsck_store(store, now=time.time() + 2 * self.WEEK)
        assert report.counts["orphaned_dispatch"] == 2
        assert all(f.action is None for f in report.findings)
        assert lease.exists() and shard.exists()

    def test_repair_reclaims_lease_and_quarantines_staging(self, store):
        import time

        lease = self._lease_dir(store)
        shard = self._staging_dir(store, "other__v4__2021-01-01.t2")
        report = fsck_store(store, repair=True,
                            now=time.time() + 2 * self.WEEK)
        assert all(f.action == "reclaimed" for f in report.findings)
        assert not lease.exists()
        # unpublished staging output is preserved, never deleted
        assert not shard.exists()
        moved = (store.root / "quarantine" / "orphan"
                 / "other__v4__2021-01-01.t2")
        assert (moved / "linx" / "partial.json").is_file()
        assert (moved.parent / (moved.name + ".orphan.json")).is_file()
        assert fsck_store(store).clean

    def test_repair_deletes_superseded_published_staging(self, store):
        import time

        shard = self._staging_dir(store, f"linx__v4__{DATES[0]}.t1")
        fsck_store(store, repair=True, now=time.time() + 2 * self.WEEK)
        assert not shard.exists()
        assert not (store.root / "quarantine" / "orphan").exists()

    def test_reclaim_age_is_tunable(self, store):
        import time

        self._lease_dir(store)
        report = fsck_store(store, reclaim_age=0.0,
                            now=time.time() + 5.0)
        assert report.counts["orphaned_dispatch"] == 1
