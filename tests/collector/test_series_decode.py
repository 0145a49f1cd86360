"""A store decodes each stored value once per series.

``DatasetStore.read_snapshot`` decodes through the successor of the
memo its previous read of the same (IXP, family) used, on both codecs.
These tests count the parser calls behind it (a re-read day, or a day
identical to the one before, parses nothing), hold every decode equal
to a fresh store's down to hash and set iteration order, and check the
bound (two payloads' values, no more) and that a failed decode leaves
nothing behind. CI also runs this file under a random hash seed, where
set iteration order differs from run to run.
"""

import gc
import sys
import threading
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from repro.bgp import route as route_module
from repro.bgp.aspath import AsPath
from repro.bgp.communities import standard
from repro.bgp.route import Route
from repro.collector import DatasetStore, SchemaDriftError, Snapshot
from repro.io import COLUMNAR_CODEC, JSON_CODEC
from repro.ixp import get_profile
from repro.workload import ScenarioConfig, SnapshotGenerator

CODECS = (JSON_CODEC, COLUMNAR_CODEC)
DAYS = ("2021-10-04", "2021-10-05", "2021-10-06")


@pytest.fixture()
def parses(monkeypatch):
    """Counts calls of the parsers behind the decode memo, by name and
    argument."""
    seen = Counter()

    def counted(name, parse):
        def wrapper(*args):
            seen[name, args[-1]] += 1
            return parse(*args)
        return wrapper

    for name in ("canonical", "parse_community", "_format_v6"):
        parse = getattr(route_module, name, None)
        if parse is not None:
            monkeypatch.setattr(route_module, name, counted(name, parse))
    from_string = AsPath.__dict__["from_string"].__func__
    monkeypatch.setattr(AsPath, "from_string", classmethod(
        counted("AsPath.from_string", from_string)))
    return seen


def generated(family, day, date):
    generator = SnapshotGenerator(get_profile("bcix"),
                                  ScenarioConfig(scale=0.012, seed=7))
    snapshot = generator.snapshot(family, day, degraded=False)
    return replace(snapshot, captured_on=date)


def assert_same_decode(got, want):
    """Equal in value, in ``to_dict()``, in hash and in the iteration
    order of every community set."""
    assert got.to_dict() == want.to_dict()
    assert got.routes == want.routes
    assert [hash(r) for r in got.routes] == [hash(r) for r in want.routes]
    for mine, theirs in zip(got.routes, want.routes):
        for field in ("communities", "extended_communities",
                      "large_communities"):
            assert list(getattr(mine, field)) == \
                list(getattr(theirs, field))


def fresh_decode(root, date, family=4, ixp="bcix"):
    return DatasetStore(root).load_snapshot(ixp, family, date)


@pytest.mark.parametrize("family", (4, 6))
@pytest.mark.parametrize("codec", CODECS)
def test_repeated_days_parse_nothing(tmp_path, parses, codec, family):
    root = tmp_path / "store"
    writer = DatasetStore(root, snapshot_codec=codec)
    first = generated(family, 80, DAYS[0])
    writer.save_snapshot(first)
    # a day identical to the one before it
    writer.save_snapshot(replace(first, captured_on=DAYS[1]))
    writer.save_snapshot(generated(family, 81, DAYS[2]))
    store = DatasetStore(root)

    def read(date):
        parses.clear()
        snapshot = store.load_snapshot("bcix", family, date)
        parsed = sum(parses.values())
        assert_same_decode(snapshot, fresh_decode(root, date, family))
        return parsed

    assert read(DAYS[0]) > 0          # the counters see the parsers
    assert read(DAYS[0]) == 0         # a re-read day
    assert read(DAYS[1]) == 0         # a day equal to the previous one
    read(DAYS[2])
    assert read(DAYS[2]) == 0


def _route(peer, path, *communities):
    return Route(prefix=f"10.{peer % 256}.0.0/16", next_hop="192.0.2.1",
                 as_path=AsPath.from_string(path), peer_asn=peer,
                 communities=frozenset(communities))


def _day(date, *routes):
    return Snapshot(ixp="bcix", family=4, captured_on=date,
                    routes=list(routes))


COMMON = (_route(64500, "64500 64999", standard(64500, 1)),
          _route(64501, "64501 64998", standard(64501, 2)))


@pytest.mark.parametrize("codec", CODECS)
def test_a_value_only_an_older_day_held_is_released(tmp_path, parses,
                                                   codec):
    writer = DatasetStore(tmp_path / "store", snapshot_codec=codec)
    only_day_one = _route(64502, "64502 65111", standard(64502, 4242))
    writer.save_snapshot(_day(DAYS[0], *COMMON, only_day_one))
    writer.save_snapshot(_day(DAYS[1], *COMMON))
    writer.save_snapshot(_day(DAYS[2], *COMMON))
    store = DatasetStore(writer.root)

    held = store.load_snapshot("bcix", 4, DAYS[0]).routes[-1]
    path, community = weakref.ref(held.as_path), \
        weakref.ref(next(iter(held.communities)))
    del held
    store.load_snapshot("bcix", 4, DAYS[1])
    store.load_snapshot("bcix", 4, DAYS[2])
    gc.collect()
    assert path() is None and community() is None

    parses.clear()
    store.load_snapshot("bcix", 4, DAYS[1])   # within two generations
    assert sum(parses.values()) == 0
    store.load_snapshot("bcix", 4, DAYS[0])
    assert parses["AsPath.from_string", "64502 65111"] == 1


class _Unparseable:
    """A community whose string form no parser accepts."""

    def __str__(self):
        return "64503:x"


@pytest.mark.parametrize("codec", CODECS)
def test_a_failed_decode_poisons_nothing(tmp_path, parses, codec):
    writer = DatasetStore(tmp_path / "store", snapshot_codec=codec)
    writer.save_snapshot(_day(DAYS[0], *COMMON))
    # the bad community is on the last route: the routes before it
    # parse, and would be memoised, before the decode fails
    writer.save_snapshot(_day(
        DAYS[1], _route(64500, "64500 64997", standard(64500, 3)),
        *COMMON, _route(64503, "64503 64996", _Unparseable())))
    writer.save_snapshot(_day(DAYS[2], *COMMON))
    store = DatasetStore(writer.root)

    store.load_snapshot("bcix", 4, DAYS[0])
    damaged = store._snapshot_path("bcix", 4, DAYS[1])
    with pytest.raises(SchemaDriftError) as excinfo:
        store.load_snapshot("bcix", 4, DAYS[1])
    assert not damaged.exists()
    [record] = store.quarantine_records()
    assert record.original == damaged.relative_to(store.root).as_posix()
    assert excinfo.value.record.moved_to == record.moved_to

    parses.clear()
    after = store.load_snapshot("bcix", 4, DAYS[2])
    # the series kept the memo of its last good day, which held all of
    # this one's values
    assert sum(parses.values()) == 0
    assert_same_decode(after, fresh_decode(store.root, DAYS[2]))


@pytest.mark.parametrize("codec", CODECS)
def test_concurrent_readers_of_one_series_decode_what_a_fresh_store_does(
        tmp_path, codec):
    """Threads that read one series through one store may lose a
    generation of the memo, which costs parses, never a wrong value."""
    writer = DatasetStore(tmp_path / "store", snapshot_codec=codec)
    for day, date in enumerate(DAYS):
        writer.save_snapshot(generated(4, 80 + day, date))
    want = {date: fresh_decode(writer.root, date) for date in DAYS}
    store = DatasetStore(writer.root)
    failures = []

    def reader(offset):
        try:
            for step in range(6):
                date = DAYS[(offset + step) % len(DAYS)]
                assert_same_decode(store.load_snapshot("bcix", 4, date),
                                   want[date])
        except Exception as error:  # noqa: BLE001 — reported below
            failures.append(error)

    threads = [threading.Thread(target=reader, args=(n,))
               for n in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
