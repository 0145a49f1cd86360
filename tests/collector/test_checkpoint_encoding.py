"""Campaign checkpoints encode each peer once and stay byte-identical.

A campaign checkpoint is an append-only journal: each flush writes one
segment holding the peers collected since the previous flush, each
encoded once (:class:`~repro.collector.integrity.EncodedJSON`). Every
segment file and its digest must be exactly what ``encode_artefact``
makes of the plain segment dict — for untrusted peer names and failure
strings, filtered routes, resumed and fresh peers completing in any
order, and the obs ``metrics`` key — the segments must chain, and each
peer entry must be encoded a fixed number of times however many
checkpoints a run writes.
"""

import json
import re
import tempfile
import types
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.bgp.route import Route
from repro.collector import DatasetStore, integrity
from repro.collector.campaign import (
    CHECKPOINT_VERSION,
    CampaignConfig,
    CampaignTarget,
    CollectionCampaign,
    PeerFailure,
    TargetReport,
    _PeerLedger,
)
from repro.collector.integrity import EncodedJSON, encode_artefact
from repro.collector.manifest import Manifest
from repro.lg import LookingGlassServer
from repro.lg.api import NeighborSummary
from repro.lg.client import FAILURE_CLASSES

DATE = "2021-10-04"
TARGET = CampaignTarget(ixp="linx", family=4)

#: LG-supplied strings are untrusted: quotes, backslashes, control
#: characters, non-ASCII, and text that looks like JSON.
untrusted = st.one_of(
    st.text(max_size=12),
    st.sampled_from(['Ünïcødé GmbH', 'say "hi"\\', 'tab\tnl\n\x00',
                     '  ', '日本語 ISP', '"},"peers":{',
                     '😀 emoji']))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)


@st.composite
def peer_routes(draw, asn):
    routes = []
    for index in range(draw(st.integers(min_value=0, max_value=4))):
        payload = {
            "prefix": f"10.{index}.{asn % 256}.0/24",
            "next_hop": "192.0.2.1",
            "as_path": f"{asn} 64500",
            "peer_asn": asn,
            "communities": draw(st.lists(
                st.sampled_from(["0:6695", "64500:1", "65535:666"]),
                max_size=3, unique=True)),
            "extended_communities": draw(st.lists(
                st.sampled_from(["rt:1:2", "ro:64500:7"]),
                max_size=2, unique=True)),
            "large_communities": draw(st.lists(
                st.sampled_from(["6695:1:2", "64500:0:1"]),
                max_size=2, unique=True)),
        }
        if draw(st.booleans()):
            payload["filtered"] = True
            payload["filter_reason"] = draw(untrusted)
        routes.append(Route.from_dict(payload))
    return routes


@st.composite
def scenarios(draw):
    asns = draw(st.lists(st.integers(min_value=1, max_value=4_200_000_000),
                         min_size=1, max_size=7, unique=True))
    peers = []
    for asn in asns:
        routes = draw(peer_routes(asn))
        entry = {"routes": [route.to_dict() for route in routes],
                 "filtered": draw(st.integers(min_value=0,
                                              max_value=10**6)),
                 "name": draw(untrusted)}
        resumed = draw(st.booleans())
        if resumed:
            # a parked journal keeps whatever key order it was
            # written with.
            keys = draw(st.permutations(list(entry)))
            entry = {key: entry[key] for key in keys}
        peers.append({"asn": asn, "routes": routes, "entry": entry,
                      "resumed": resumed})
    # fresh peers complete in any order, not ASN order
    fresh = draw(st.permutations([p for p in peers if not p["resumed"]]))
    failures = draw(st.lists(st.builds(
        PeerFailure, asn=st.integers(min_value=1, max_value=65535),
        failure_class=st.sampled_from(FAILURE_CLASSES),
        error=untrusted), max_size=3))
    metrics = draw(st.none() | st.dictionaries(
        st.text(max_size=8), json_values, max_size=3))
    digest = draw(st.none() | st.just("ab" * 32))
    return peers, fresh, failures, metrics, digest


def expected_payload(entries, failures, metrics, digest, chain=None):
    """A checkpoint exactly as a plain dict, in file order: one journal
    segment when *chain* gives its ``(seq, prev)``, else the whole
    merged checkpoint."""
    payload = {} if chain is None else {"seq": chain[0],
                                        "prev": chain[1]}
    payload.update({
        "version": CHECKPOINT_VERSION,
        "ixp": TARGET.ixp,
        "family": TARGET.family,
        "captured_on": DATE,
        "dictionary_digest": digest,
        "peers": {asn: entries[asn] for asn in sorted(entries, key=int)},
        "failures": [f.to_dict() for f in
                     sorted(failures, key=lambda f: f.asn)],
    })
    if metrics is not None:
        payload["metrics"] = metrics
    return payload


class TestByteIdentity:
    @settings(max_examples=60, deadline=None)
    @given(scenarios())
    def test_checkpoint_bytes_match_encode_artefact(self, scenario):
        """Every flush — fresh peers arriving out of ASN order after a
        resume — appends one segment with the bytes ``encode_artefact``
        gives the plain segment dict, chained by digest and absent from
        the manifest, and the journal reads back as the whole
        checkpoint."""
        peers, fresh, failures, metrics, digest = scenario
        with tempfile.TemporaryDirectory() as root, \
                mock.patch.object(obs, "enabled",
                                  lambda: metrics is not None), \
                mock.patch.object(obs, "snapshot", lambda: metrics):
            store = DatasetStore(Path(root))
            campaign = CollectionCampaign(store, CampaignConfig(
                base_url="http://lg.invalid", targets=[TARGET],
                captured_on=DATE))
            campaign._dictionary_digests[TARGET.ixp] = digest
            report = TargetReport(ixp=TARGET.ixp, family=TARGET.family,
                                  failures=list(failures))
            entries = {str(p["asn"]): p["entry"]
                       for p in peers if p["resumed"]}
            # the resumed peers are a parked journal's genesis segment
            store.save_checkpoint(TARGET.ixp, TARGET.family, DATE,
                                  expected_payload(entries, [], None,
                                                   digest))
            ledger = _PeerLedger()
            ledger.resume(store.load_checkpoint(
                TARGET.ixp, TARGET.family, DATE)["peers"])
            _genesis, prev = encode_artefact(expected_payload(
                entries, [], None, digest, chain=(0, None)),
                "checkpoint", gz=False)
            # None = one flush with no new peer, only the failures
            for seq, peer in enumerate([None] + fresh, start=1):
                new = {}
                if peer is not None:
                    entry = peer["entry"]
                    ledger.collect(NeighborSummary(
                        asn=peer["asn"], name=entry["name"],
                        state="Established",
                        routes_accepted=len(peer["routes"]),
                        routes_filtered=entry["filtered"]),
                        peer["routes"])
                    new[str(peer["asn"])] = entries[str(peer["asn"])] \
                        = entry
                path = campaign._save_checkpoint(TARGET, DATE, ledger,
                                                 report)

                want, want_digest = encode_artefact(
                    expected_payload(new, failures if seq == 1 else [],
                                     metrics, digest, chain=(seq, prev)),
                    "checkpoint", gz=True, compresslevel=6)
                assert path.name == f"{seq:06d}.json.gz"
                assert path.read_bytes() == want
                manifest = Manifest.load(store.root / TARGET.ixp)
                assert manifest.get(
                    path.relative_to(store.root / TARGET.ixp)
                    .as_posix()) is None
                prev = want_digest
                assert store.load_checkpoint(
                    TARGET.ixp, TARGET.family, DATE) == json.loads(
                        json.dumps(expected_payload(
                            entries, failures, metrics, digest)))

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(untrusted, json_values, max_size=5),
           st.dictionaries(untrusted, json_values, max_size=3))
    def test_spliced_object_matches_whole_encoding(self, outer, inner):
        """An object built from pre-encoded members (nested too) equals
        the one-call encoding in insertion order."""
        document = dict(outer, nested=inner)
        spliced = EncodedJSON.of_object(
            dict(outer, nested=EncodedJSON.of_object(inner)))
        assert b"".join(spliced.parts) \
            == json.dumps(document, separators=(",", ":")).encode()
        assert encode_artefact(spliced, "checkpoint", gz=False) \
            == encode_artefact(document, "checkpoint", gz=False)

    def test_non_string_keys_are_refused(self):
        with pytest.raises(TypeError):
            EncodedJSON.of_object({1: "one"})


# -- encoding work per peer ------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


PEER_ASN = re.compile(rb'"peer_asn":(\d+)')


@pytest.fixture(scope="module")
def lg_url(lg_world):
    server = LookingGlassServer(
        {(ixp, 4): lg_world(ixp)[1] for ixp in ("linx", "bcix")},
        rate_per_second=100_000, burst=100_000)
    with server.serve() as url:
        yield url


class TestEncodingWork:
    @pytest.mark.parametrize("ixp", ["linx", "bcix"])
    def test_each_peer_is_encoded_a_fixed_number_of_times(
            self, lg_url, ixp, tmp_path, monkeypatch):
        """Count, per peer, the checkpoint encodings whose output holds
        that peer's routes: one for every
        peer a flush included, whatever the cadence and the mount's
        peer count — a flush never re-encodes the peers an earlier
        flush already did. Peers collected after the last flush are
        never encoded at all."""
        encodings = Counter()
        counting = [True]

        def counting_dumps(value, *args, **kwargs):
            text = json.dumps(value, *args, **kwargs)
            if counting[0]:
                encodings.update(
                    set(PEER_ASN.findall(text.encode("utf-8"))))
            return text

        def uncounted_save_snapshot(store, snapshot):
            counting[0] = False
            try:
                return save_snapshot(store, snapshot)
            finally:
                counting[0] = True

        save_snapshot = DatasetStore.save_snapshot
        monkeypatch.setattr(DatasetStore, "save_snapshot",
                            uncounted_save_snapshot)
        monkeypatch.setattr(integrity, "json", types.SimpleNamespace(
            **{**vars(json), "dumps": counting_dumps}))
        for every in (1, 4):
            encodings.clear()
            clock = FakeClock()
            store = DatasetStore(tmp_path / f"every{every}")
            campaign = CollectionCampaign(
                store,
                CampaignConfig(base_url=lg_url,
                               targets=[CampaignTarget(ixp=ixp, family=4)],
                               captured_on=DATE, checkpoint_every=every),
                clock=clock, sleep=clock.sleep)
            assert campaign.run().complete
            counts = dict(encodings)
            with_routes = {str(route.peer_asn).encode() for route in
                           store.load_snapshot(ixp, 4, DATE).routes}
            assert len(with_routes) > 10
            assert set(counts.values()) == {1}, every
            assert set(counts) <= with_routes
            # only the peers after the last flush (< every) are missing
            assert len(with_routes - set(counts)) < every
