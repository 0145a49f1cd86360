"""Property-based tests (hypothesis) for the BGP substrate invariants."""

from hypothesis import given
from hypothesis import strategies as st

from repro.bgp.aspath import AsPath
from repro.bgp.communities import (
    LargeCommunity,
    StandardCommunity,
    parse_community,
)
from repro.bgp.asn import format_asdot, parse_asn

u16 = st.integers(min_value=0, max_value=0xFFFF)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)

standard_communities = st.builds(StandardCommunity, asn=u16, value=u16)
large_communities = st.builds(
    LargeCommunity, global_admin=u32, local_data1=u32, local_data2=u32)

public_asns = st.integers(min_value=1, max_value=64495)
as_paths = st.lists(public_asns, min_size=1, max_size=12).map(
    AsPath.from_asns)


class TestCommunityProperties:
    @given(standard_communities)
    def test_standard_string_roundtrip(self, community):
        assert parse_community(str(community)) == community

    @given(standard_communities)
    def test_u32_roundtrip(self, community):
        assert StandardCommunity.from_u32(community.to_u32()) == community

    @given(large_communities)
    def test_large_string_roundtrip(self, community):
        assert parse_community(str(community)) == community

    @given(standard_communities, standard_communities)
    def test_ordering_total(self, a, b):
        assert (a < b) or (b < a) or (a == b)


class TestAsnProperties:
    @given(u32)
    def test_asdot_roundtrip(self, asn):
        assert parse_asn(format_asdot(asn)) == asn


class TestAsPathProperties:
    @given(as_paths)
    def test_string_roundtrip(self, path):
        assert AsPath.from_string(str(path)) == path

    @given(as_paths)
    def test_length_counts_every_asn(self, path):
        assert path.length == len(list(path.asns()))

    @given(as_paths, public_asns,
           st.integers(min_value=1, max_value=5))
    def test_prepend_adds_exactly_count(self, path, asn, count):
        assert path.prepended(asn, count).length == path.length + count

    @given(as_paths, st.integers(min_value=1, max_value=5))
    def test_self_prepend_never_creates_loop(self, path, count):
        prepended = path.prepended(path.first_asn, count)
        assert prepended.has_loop() == path.has_loop()

