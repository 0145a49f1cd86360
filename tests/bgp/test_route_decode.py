"""Memoised JSON route decode: ``Route.from_dict(payload, memo)``.

One :class:`RouteDecodeMemo` shared across a payload's routes must
change nothing but speed: every route equals (value, ``to_dict()``,
hash) the one decoded without a memo and the one the dataclass
constructor builds from the same fields, and every malformed route
raises the same exception class all three ways — also after the memo
has seen good and bad routes before it.
"""

import ipaddress

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.aspath import AsPath
from repro.bgp.communities import parse_community
from repro.bgp.route import Route, RouteDecodeMemo

u16 = st.integers(min_value=0, max_value=0xFFFF)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
asns = st.integers(min_value=1, max_value=4_200_000_000)


@st.composite
def prefixes(draw):
    """Canonical and non-canonical spellings of v4 and v6 prefixes."""
    if draw(st.booleans()):
        plen = draw(st.integers(min_value=8, max_value=24))
        base = draw(st.integers(min_value=0, max_value=(1 << plen) - 1))
        return f"{ipaddress.IPv4Address(base << (32 - plen))}/{plen}"
    plen = draw(st.integers(min_value=16, max_value=48))
    base = draw(st.integers(min_value=0, max_value=(1 << plen) - 1))
    address = ipaddress.IPv6Address(base << (128 - plen))
    text = draw(st.sampled_from([
        address.compressed, address.compressed.upper(),
        address.exploded]))
    return f"{text}/{plen}"


@st.composite
def as_path_strings(draw):
    """LG renderings with AS_SEQUENCE runs and AS_SET segments."""
    segments = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        members = draw(st.lists(asns, min_size=1, max_size=4))
        if segments and draw(st.booleans()):
            segments.append("{" + ",".join(map(str, members)) + "}")
        else:
            segments.append(" ".join(map(str, members)))
    separator = draw(st.sampled_from([" ", "  "]))
    return separator.join(segments)


communities = st.one_of(
    st.builds("{}:{}".format, u16, u16),
    st.builds("({},{})".format, u16, u16),
    st.builds("{}:{}:{}".format, u32, u32, u32),
    st.builds("rt:{}:{}".format, u16, u32),
    st.builds("ro:{}:{}".format, u16, u32),
    st.builds("generic:0x{:02x}:0x{:02x}:{}:{}".format,
              st.integers(0, 0xFF), st.integers(0, 0xFF), u16, u32),
)


@st.composite
def payload_lists(draw):
    """Route payloads drawing from small pools, so prefixes, paths and
    whole community lists repeat across routes as they do in one
    snapshot."""
    prefix_pool = draw(st.lists(prefixes(), min_size=1, max_size=4))
    path_pool = draw(st.lists(as_path_strings(), min_size=1, max_size=4))
    list_pool = draw(st.lists(st.lists(communities, max_size=5),
                              min_size=1, max_size=4))
    payloads = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        payload = {
            "prefix": draw(st.sampled_from(prefix_pool)),
            "next_hop": draw(st.sampled_from(["192.0.2.1",
                                              "2001:db8::1"])),
            "as_path": draw(st.sampled_from(path_pool)),
            "peer_asn": draw(st.sampled_from([64500, "64500", 65550])),
            "communities": list(draw(st.sampled_from(list_pool))),
            "extended_communities": list(draw(st.sampled_from(list_pool))),
        }
        if draw(st.booleans()):
            payload["large_communities"] = list(
                draw(st.sampled_from(list_pool)))
        if draw(st.booleans()):
            payload["filtered"] = True
            payload["filter_reason"] = draw(st.sampled_from(
                ["bogon", "too_long_path", None]))
        payloads.append(payload)
    return payloads


def constructed(payload):
    """The route the dataclass constructor builds from *payload*."""
    return Route(
        prefix=payload["prefix"],
        next_hop=payload["next_hop"],
        as_path=AsPath.from_string(payload["as_path"]),
        peer_asn=int(payload["peer_asn"]),
        communities=frozenset(
            parse_community(c) for c in payload.get("communities", ())),
        extended_communities=frozenset(
            parse_community(c)
            for c in payload.get("extended_communities", ())),
        large_communities=frozenset(
            parse_community(c)
            for c in payload.get("large_communities", ())),
        filtered=bool(payload.get("filtered", False)),
        filter_reason=payload.get("filter_reason"),
    )


def raised(decode, payload):
    try:
        decode(payload)
    except Exception as error:  # noqa: BLE001 - the class is the result
        return type(error)
    return None


BAD_VALUES = {
    "prefix": ["10.0.0.1/8", "not a prefix", "", 5, None, ["10.0.0.0/8"]],
    "as_path": ["", "{64500", "64500 {1,{2}}", "64500 x", "4294967296",
                5, None, ["64500"]],
    "peer_asn": ["AS64500", None, [1]],
    "communities": ["1:2", 5, None, ["1:2:3:4"], ["x:y"], ["70000:1"],
                    [5], [{}], [None], [["1:2"]]],
    "extended_communities": [["rt:1"], ["generic:0x1:2:3"], [1.5]],
    "large_communities": [["1:2:4294967296"], [None], [{}]],
}


@st.composite
def malformed_payloads(draw):
    payload = dict(draw(payload_lists())[0])
    field = draw(st.sampled_from(sorted(BAD_VALUES) + ["missing"]))
    if field == "missing":
        del payload[draw(st.sampled_from(
            ["prefix", "next_hop", "as_path", "peer_asn"]))]
    else:
        payload[field] = draw(st.sampled_from(BAD_VALUES[field]))
    return payload


class TestMemoEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(payload_lists())
    def test_shared_memo_matches_plain_decode(self, payloads):
        memo = RouteDecodeMemo()
        shared = [Route.from_dict(p, memo) for p in payloads]
        plain = [Route.from_dict(p) for p in payloads]
        built = [constructed(p) for p in payloads]
        assert shared == plain == built
        assert [r.to_dict() for r in shared] == \
            [r.to_dict() for r in built]
        assert [hash(r) for r in shared] == [hash(r) for r in built]
        assert [r.prefix for r in shared] == [r.prefix for r in built]

    @settings(max_examples=30, deadline=None)
    @given(payload_lists())
    def test_repeats_share_parsed_values(self, payloads):
        memo = RouteDecodeMemo()
        routes = [Route.from_dict(p, memo) for p in payloads]
        by_path = {}
        for payload, route in zip(payloads, routes):
            assert by_path.setdefault(payload["as_path"],
                                      route.as_path) is route.as_path
        assert len(memo.paths) == len({p["as_path"] for p in payloads})

    @settings(max_examples=100, deadline=None)
    @given(payload_lists(), malformed_payloads(), payload_lists())
    def test_malformed_raises_the_same_class(self, before, bad, after):
        expected = raised(constructed, bad)
        assert expected is not None
        assert raised(Route.from_dict, bad) is expected
        memo = RouteDecodeMemo()
        for payload in before:
            Route.from_dict(payload, memo)
        assert raised(lambda p: Route.from_dict(p, memo), bad) is expected
        # a failed parse is never memoised: the same bad input raises
        # again, and good input still decodes as without a memo
        assert raised(lambda p: Route.from_dict(p, memo), bad) is expected
        assert [Route.from_dict(p, memo) for p in after] == \
            [constructed(p) for p in after]
