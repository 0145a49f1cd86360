"""Tests for repro.bgp.communities."""

import pytest

from repro.bgp.communities import (
    BLACKHOLE,
    NO_ADVERTISE,
    NO_EXPORT,
    Community,
    ExtendedCommunity,
    LargeCommunity,
    StandardCommunity,
    community_kind,
    encodes_asn_target,
    large,
    parse_community,
    standard,
)
from repro.bgp.errors import MalformedCommunityError


class TestStandard:
    def test_str(self):
        assert str(standard(64500, 123)) == "64500:123"

    def test_from_string(self):
        assert StandardCommunity.from_string("64500:123") == standard(
            64500, 123)

    def test_from_bird_rendering(self):
        assert StandardCommunity.from_string("(64500,123)") == standard(
            64500, 123)

    def test_u32_roundtrip(self):
        community = standard(6939, 666)
        assert StandardCommunity.from_u32(community.to_u32()) == community

    def test_field_range_enforced(self):
        with pytest.raises(MalformedCommunityError):
            StandardCommunity(70000, 1)
        with pytest.raises(MalformedCommunityError):
            StandardCommunity(1, -1)

    def test_well_known_names(self):
        assert StandardCommunity.from_u32(NO_EXPORT).well_known_name == \
            "no-export"
        assert StandardCommunity.from_u32(NO_ADVERTISE).well_known_name == \
            "no-advertise"
        assert StandardCommunity.from_u32(BLACKHOLE).well_known_name == \
            "blackhole"
        assert standard(64500, 1).well_known_name is None

    def test_blackhole_is_65535_666(self):
        assert StandardCommunity.from_u32(BLACKHOLE) == standard(65535, 666)

    def test_ordering_and_hashing(self):
        a, b = standard(1, 2), standard(1, 3)
        assert a < b
        assert len({a, b, standard(1, 2)}) == 2

    def test_bad_strings(self):
        for text in ("64500", "a:b", "1:2:3:4", ""):
            with pytest.raises(MalformedCommunityError):
                StandardCommunity.from_string(text)


class TestExtended:
    def test_route_target_string(self):
        assert str(ExtendedCommunity.route_target(64500, 9)) == "rt:64500:9"

    def test_parse_rt(self):
        community = ExtendedCommunity.from_string("rt:64500:9")
        assert (community.type_high, community.type_low) == (0x00, 0x02)

    def test_parse_ro(self):
        community = ExtendedCommunity.from_string("ro:64500:9")
        assert community.type_low == 0x03

    def test_parse_generic(self):
        community = ExtendedCommunity.from_string("generic:0x40:0x05:1:2")
        assert community.type_high == 0x40
        assert not community.is_transitive

    def test_transitive_flag(self):
        assert ExtendedCommunity.route_target(1, 1).is_transitive

    def test_bad_string(self):
        with pytest.raises(MalformedCommunityError):
            ExtendedCommunity.from_string("rt:1")

    def test_str_roundtrip_generic(self):
        community = ExtendedCommunity(0x43, 0x11, 5, 6)
        assert ExtendedCommunity.from_string(str(community)) == community


class TestLarge:
    def test_str(self):
        assert str(large(26162, 0, 15169)) == "26162:0:15169"

    def test_parse(self):
        assert LargeCommunity.from_string("26162:0:15169") == large(
            26162, 0, 15169)

    def test_32bit_fields_allowed(self):
        community = large(4200000001, 4294967295, 0)
        assert community.global_admin == 4200000001

    def test_field_range(self):
        with pytest.raises(MalformedCommunityError):
            LargeCommunity(2 ** 32, 0, 0)


class TestParseDispatch:
    def test_two_fields_is_standard(self):
        assert parse_community("0:6939").kind == "standard"

    def test_three_fields_is_large(self):
        assert parse_community("6695:0:6939").kind == "large"

    def test_rt_prefix_is_extended(self):
        assert parse_community("rt:8714:15169").kind == "extended"

    def test_kind_helper(self):
        assert community_kind(standard(1, 2)) == "standard"
        assert community_kind(large(1, 2, 3)) == "large"

    def test_unparseable(self):
        with pytest.raises(MalformedCommunityError):
            parse_community("1:2:3:4")


class TestTargetEncoding:
    def test_plausible_asn_target(self):
        assert encodes_asn_target(standard(0, 6939))

    def test_zero_value_is_not_a_target(self):
        assert not encodes_asn_target(standard(0, 0))
