"""Tests for the interned columnar snapshot codec.

Round-trip exactness over every route shape the model allows, codec
dispatch at the store read path, damage behaviour (mangled columnar
bodies classify as schema drift and quarantine like any other payload
corruption), and in-place conversion.
"""

import base64

import pytest

from repro.bgp.aspath import AsPath
from repro.bgp.communities import ExtendedCommunity, large, standard
from repro.bgp.route import Route
from repro.collector import DatasetStore, Snapshot, fsck_store
from repro.collector.integrity import IntegrityError
from repro.io import (
    COLUMNAR_CODEC,
    JSON_CODEC,
    ColumnarFormatError,
    decode_snapshot_payload,
    encode_snapshot_payload,
    payload_codec,
)
from repro.ixp.member import Member, MemberRole

DATE = "2021-10-04"


def _member(asn):
    return Member(asn=asn, name=f"AS{asn}", role=MemberRole.ACCESS_ISP)


def _route(prefix, peer, path=None, **kwargs):
    return Route(prefix=prefix, next_hop="192.0.2.1",
                 as_path=AsPath.from_asns(path or [peer, 64999]),
                 peer_asn=peer, **kwargs)


def rich_snapshot():
    """Every encodable shape: three community flavours, v4 + host
    routes, AS_SET paths, full-path-≠-peer routes, filtered routes
    with and without reasons, duplicate prefixes, meta."""
    routes = [
        _route("203.0.113.0/24", 64500,
               communities=frozenset({standard(64500, 1),
                                      standard(0, 6939)}),
               extended_communities=frozenset(
                   {ExtendedCommunity.route_target(64500, 99)}),
               large_communities=frozenset({large(64500, 1, 2)})),
        _route("203.0.113.0/24", 64501),
        _route("198.51.100.7/32", 64500,
               communities=frozenset({standard(65535, 666)})),
        Route(prefix="198.51.100.0/28", next_hop="192.0.2.9",
              as_path=AsPath.from_string("64502 {64503,64504}"),
              peer_asn=64502),
        # a path that does not start with the announcing peer
        _route("192.0.2.0/27", 64501, path=[64999, 64444]),
        _route("203.0.113.128/25", 64501,
               filtered=True, filter_reason="rpki-invalid"),
        _route("203.0.113.192/26", 64501, filtered=True),
    ]
    return Snapshot(ixp="linx", family=4, captured_on=DATE,
                    members=[_member(64500), _member(64501),
                             _member(64502)],
                    routes=routes, filtered_count=3,
                    meta={"seed": 11, "degraded": False})


def v6_snapshot():
    routes = [
        Route(prefix="2001:db8:0:1::/64", next_hop="2001:db8::1",
              as_path=AsPath.from_asns([64500, 64999]),
              peer_asn=64500,
              communities=frozenset({standard(64500, 2)})),
        Route(prefix="2001:db8::dead:beef/128", next_hop="2001:db8::2",
              as_path=AsPath.from_asns([64501]), peer_asn=64501),
    ]
    return Snapshot(ixp="linx", family=6, captured_on=DATE,
                    members=[_member(64500), _member(64501)],
                    routes=routes)


class TestRoundTrip:
    @pytest.mark.parametrize("snapshot_factory",
                             [rich_snapshot, v6_snapshot])
    def test_exact(self, snapshot_factory):
        snapshot = snapshot_factory()
        payload = encode_snapshot_payload(snapshot, COLUMNAR_CODEC)
        restored = decode_snapshot_payload(payload)
        assert restored.to_dict() == snapshot.to_dict()
        assert [r for r in restored.routes] == list(snapshot.routes)

    def test_empty_routes(self):
        snapshot = Snapshot(ixp="linx", family=4, captured_on=DATE,
                            members=[_member(1)])
        payload = encode_snapshot_payload(snapshot, COLUMNAR_CODEC)
        assert decode_snapshot_payload(payload).to_dict() \
            == snapshot.to_dict()

    def test_json_codec_is_identity(self):
        snapshot = rich_snapshot()
        payload = encode_snapshot_payload(snapshot, JSON_CODEC)
        assert payload == snapshot.to_dict()
        assert decode_snapshot_payload(payload).to_dict() \
            == snapshot.to_dict()

    def test_columnar_is_smaller(self):
        import json
        snapshot = rich_snapshot()
        # tiny snapshots barely amortise the dictionary, so compare a
        # repetitive one: same shape the codec exists for
        routes = [
            _route(f"10.{i // 2}.{(i % 2) * 128}.0/17",
                   64500 + (i % 3),
                   communities=frozenset({standard(64500, 1)}))
            for i in range(500)]
        big = Snapshot(ixp="linx", family=4, captured_on=DATE,
                       members=snapshot.members, routes=routes)
        json_size = len(json.dumps(big.to_dict()).encode())
        col_size = len(json.dumps(
            encode_snapshot_payload(big, COLUMNAR_CODEC)).encode())
        assert col_size < json_size / 3


class TestCodecDispatch:
    def test_payload_codec(self):
        snapshot = rich_snapshot()
        assert payload_codec(snapshot.to_dict()) == JSON_CODEC
        assert payload_codec(
            encode_snapshot_payload(snapshot, COLUMNAR_CODEC)) \
            == COLUMNAR_CODEC

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError):
            encode_snapshot_payload(rich_snapshot(), "protobuf")
        with pytest.raises(ColumnarFormatError):
            payload_codec({"ixp": "linx", "codec": "protobuf"})

    def test_required_keys_survive(self):
        from repro.collector.snapshot import REQUIRED_PAYLOAD_KEYS
        payload = encode_snapshot_payload(rich_snapshot(),
                                          COLUMNAR_CODEC)
        for key in REQUIRED_PAYLOAD_KEYS:
            assert key in payload


class TestDamage:
    """Mangled columnar bodies must raise ColumnarFormatError — a
    ValueError — so the store read path classifies them exactly like
    JSON schema drift."""

    def _payload(self):
        return encode_snapshot_payload(rich_snapshot(), COLUMNAR_CODEC)

    def test_is_value_error(self):
        assert issubclass(ColumnarFormatError, ValueError)

    @pytest.mark.parametrize("mangle", [
        lambda blob: blob[:-10],                      # truncated
        lambda blob: "!!!not-base64!!!",              # bad base64
        lambda blob: base64.b64encode(b"junk").decode(),  # bad lzma
        lambda blob: blob + "AAAA",                   # trailing bytes
    ])
    def test_mangled_blob(self, mangle):
        payload = self._payload()
        payload["routes"] = dict(payload["routes"],
                                 blob=mangle(payload["routes"]["blob"]))
        with pytest.raises(ColumnarFormatError):
            decode_snapshot_payload(payload)

    def test_wrong_route_count(self):
        payload = self._payload()
        payload["routes"] = dict(payload["routes"],
                                 n=payload["routes"]["n"] + 1)
        with pytest.raises(ColumnarFormatError):
            decode_snapshot_payload(payload)

    def test_missing_blob(self):
        payload = self._payload()
        payload["routes"] = {"n": payload["routes"]["n"]}
        with pytest.raises(ColumnarFormatError):
            decode_snapshot_payload(payload)


class TestStoreIntegration:
    def test_save_read_columnar(self, tmp_path):
        store = DatasetStore(tmp_path / "ds",
                             snapshot_codec=COLUMNAR_CODEC)
        snapshot = rich_snapshot()
        store.save_snapshot(snapshot)
        loaded = store.load_snapshot("linx", 4, DATE)
        assert loaded.to_dict() == snapshot.to_dict()

    def test_mixed_store_reads_both(self, tmp_path):
        store = DatasetStore(tmp_path / "ds")
        store.save_snapshot(rich_snapshot())
        columnar = DatasetStore(tmp_path / "ds",
                                snapshot_codec=COLUMNAR_CODEC)
        columnar.save_snapshot(v6_snapshot())
        # one store object reads both payload formats transparently
        assert store.load_snapshot("linx", 4, DATE).route_count \
            == rich_snapshot().route_count
        assert store.load_snapshot("linx", 6, DATE).to_dict() \
            == v6_snapshot().to_dict()

    def test_unknown_codec_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            DatasetStore(tmp_path / "ds", snapshot_codec="protobuf")

    def test_fsck_taxonomy_matches_json(self, tmp_path):
        """Byte damage in a columnar snapshot classifies exactly like
        the same damage in its JSON twin."""
        outcomes = {}
        for codec in (JSON_CODEC, COLUMNAR_CODEC):
            root = tmp_path / codec
            store = DatasetStore(root, snapshot_codec=codec)
            store.save_snapshot(rich_snapshot())
            path = root / "linx" / "v4" / f"{DATE}.json.gz"
            blob = path.read_bytes()
            path.write_bytes(blob[:len(blob) // 2])  # truncate
            report = fsck_store(store)
            outcomes[codec] = {cls: count for cls, count
                               in report.counts.items() if count}
            assert not report.clean
        assert outcomes[JSON_CODEC] == outcomes[COLUMNAR_CODEC]

    def _mangled_load(self, tmp_path, sign):
        """Save a columnar snapshot, replace its body with junk, let
        *sign* re-sign the tampered envelope into file bytes, load."""
        import gzip
        import json
        root = tmp_path / "ds"
        store = DatasetStore(root, snapshot_codec=COLUMNAR_CODEC)
        store.save_snapshot(rich_snapshot())
        path = root / "linx" / "v4" / f"{DATE}.json.gz"
        envelope = json.loads(gzip.decompress(path.read_bytes()))
        envelope["payload"]["routes"]["blob"] = \
            base64.b64encode(b"junk").decode()
        path.write_bytes(sign(envelope))
        store._forget_manifest_entry(path)
        with pytest.raises(IntegrityError) as excinfo:
            store.load_snapshot("linx", 4, DATE)
        assert excinfo.value.damage_class == "schema_drift"
        assert not path.exists()  # quarantined, not deleted
        assert store.quarantine_records()

    def test_mangled_body_quarantines_as_schema_drift(self, tmp_path):
        """A self-consistent envelope holding an undecodable columnar
        body is schema drift: quarantined on read, never trusted."""
        from repro.collector.integrity import encode_artefact
        # written by the store's own encoder, so only the *body* is
        # wrong
        self._mangled_load(tmp_path, lambda envelope: encode_artefact(
            envelope["payload"], "snapshot", gz=True)[0])

    def test_mangled_body_under_v1_envelope_is_schema_drift(
            self, tmp_path):
        """The same, signed the version-1 way: the digest of the
        canonical re-encoding, in a re-serialised file."""
        import gzip
        import json

        from repro.collector.integrity import payload_digest

        def sign_v1(envelope):
            envelope.update(version=1,
                            sha256=payload_digest(envelope["payload"]))
            return gzip.compress(json.dumps(envelope).encode("utf-8"))

        self._mangled_load(tmp_path, sign_v1)


class TestConvert:
    def test_convert_both_ways(self, tmp_path):
        store = DatasetStore(tmp_path / "ds")
        snapshot = rich_snapshot()
        store.save_snapshot(snapshot)
        path, changed = store.convert_snapshot("linx", 4, DATE,
                                               COLUMNAR_CODEC)
        assert changed and path.exists()
        assert store.load_snapshot("linx", 4, DATE).to_dict() \
            == snapshot.to_dict()
        _path, again = store.convert_snapshot("linx", 4, DATE,
                                              COLUMNAR_CODEC)
        assert not again  # idempotent
        _path, back = store.convert_snapshot("linx", 4, DATE,
                                             JSON_CODEC)
        assert back
        assert store.load_snapshot("linx", 4, DATE).to_dict() \
            == snapshot.to_dict()

    def test_convert_passes_fsck(self, tmp_path):
        store = DatasetStore(tmp_path / "ds")
        store.save_snapshot(rich_snapshot())
        store.convert_snapshot("linx", 4, DATE, COLUMNAR_CODEC)
        assert fsck_store(store).clean

    def test_convert_refreshes_manifest_digest(self, tmp_path):
        store = DatasetStore(tmp_path / "ds")
        store.save_snapshot(rich_snapshot())
        before = store.snapshot_digest("linx", 4, DATE)
        store.convert_snapshot("linx", 4, DATE, COLUMNAR_CODEC)
        after = store.snapshot_digest("linx", 4, DATE)
        assert before and after and before != after

    def test_unknown_target_codec(self, tmp_path):
        store = DatasetStore(tmp_path / "ds")
        store.save_snapshot(rich_snapshot())
        with pytest.raises(ValueError):
            store.convert_snapshot("linx", 4, DATE, "protobuf")
