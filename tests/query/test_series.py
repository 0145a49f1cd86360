"""Tables 3/4 series pass: after a write, a rebuild verifies every
stored day once and decodes only the snapshot it has not seen; the
digest-keyed summary memo never answers for bytes that fail
verification."""

from collections import Counter

import pytest

from repro.collector import DatasetStore
from repro.core.export import dumps_rows
from repro.core.stability import variation_rows
from repro.io import columnar
from repro.query import QueryService, views

from .conftest import FAMILIES, IXPS

#: a Table 3 window shorter than the series, so one pass has to split
#: the newest days from the whole series.
WINDOW = 2


@pytest.fixture()
def window(monkeypatch):
    monkeypatch.setattr(views, "TABLE3_WINDOW", WINDOW)
    return WINDOW


@pytest.fixture()
def counts(monkeypatch):
    """Counts verified reads (per stored day) and payload decodes."""
    seen = {"reads": Counter(), "decodes": 0}
    read_snapshot = DatasetStore.read_snapshot
    decode = columnar.decode_snapshot_payload

    def counted_read(self, ixp, family, date, **kwargs):
        seen["reads"][(ixp, family, date)] += 1
        return read_snapshot(self, ixp, family, date, **kwargs)

    def counted_decode(*args, **kwargs):
        seen["decodes"] += 1
        return decode(*args, **kwargs)

    monkeypatch.setattr(DatasetStore, "read_snapshot", counted_read)
    monkeypatch.setattr(columnar, "decode_snapshot_payload",
                        counted_decode)
    return seen


def listing(store):
    return {(ixp, family): store.snapshot_dates(ixp, family)
            for ixp in IXPS for family in FAMILIES}


def load_series(store, ixp, family, dates):
    """``load_snapshot`` over *dates*, skipping days that are gone
    (quarantined)."""
    series = []
    for date in dates:
        try:
            series.append(store.load_snapshot(ixp, family, date))
        except FileNotFoundError:
            continue
    return series


def expected_tables(store, dates, window):
    """Tables 3/4 bodies from :func:`variation_rows` over
    ``load_snapshot`` series of the listed *dates*."""
    table3, table4 = [], []
    for ixp in IXPS:
        for family in FAMILIES:
            listed = dates[(ixp, family)]
            table3 += [r.as_dict() for r in variation_rows(
                load_series(store, ixp, family, listed[-window:]))]
            table4 += [r.as_dict() for r in variation_rows(
                load_series(store, ixp, family, listed))]
    return (dumps_rows(table3).encode(), dumps_rows(table4).encode())


def tables(service):
    return tuple(service.respond("table", {"table": table})
                 for table in ("3", "4"))


class TestRebuildAfterWrite:
    def test_verifies_every_day_once_and_decodes_only_the_new_one(
            self, qstore, service, linx_generator, window, counts):
        tables(service)  # warm: the first pass decodes every day
        qstore.save_snapshot(linx_generator.snapshot(4, 21,
                                                     degraded=False))
        counts["reads"].clear()
        counts["decodes"] = 0
        table3, table4 = tables(service)
        stored = {(ixp, family, date)
                  for (ixp, family), dates in listing(qstore).items()
                  for date in dates}
        assert set(counts["reads"]) == stored
        assert set(counts["reads"].values()) == {1}
        assert counts["decodes"] == 1

        fresh = QueryService(qstore, ixps=IXPS, families=FAMILIES)
        assert (table3.body, table4.body) == tuple(
            response.body for response in tables(fresh))
        assert (table3.body, table4.body) == expected_tables(
            qstore, listing(qstore), window)
        assert table3.body != table4.body  # the window really split

    def test_warm_fingerprint_is_the_memoised_object(self, service):
        assert service.fingerprint() is service.fingerprint()


class TestIntegrity:
    def test_damaged_known_day_is_quarantined_not_answered_from_memo(
            self, qstore, service, linx_generator, window):
        tables(service)
        date = qstore.snapshot_dates("linx", 4)[-1]
        digest = qstore.snapshot_digest("linx", 4, date)
        assert digest in service._summaries
        # rewrite the bytes in place, same size: the manifest still
        # vouches for the known digest, the file no longer hashes to it
        path = qstore.root / "linx" / "v4" / f"{date}.json.gz"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        assert qstore.snapshot_digest("linx", 4, date) == digest

        qstore.save_snapshot(linx_generator.snapshot(4, 21,
                                                     degraded=False))
        listed = listing(qstore)
        assert date in listed[("linx", 4)][-window:]
        table3, table4 = tables(service)

        records = [r for r in qstore.quarantine_records()
                   if r.original == f"linx/v4/{date}.json.gz"]
        assert len(records) == 1
        assert not path.exists()
        assert (table3.body, table4.body) == expected_tables(
            qstore, listed, window)

        # the quarantine moved the manifest: the next request serves
        # the series without the day, like a fresh service
        table3, table4 = tables(service)
        fresh = QueryService(qstore, ixps=IXPS, families=FAMILIES)
        assert (table3.body, table4.body) == tuple(
            response.body for response in tables(fresh))
        assert (table3.body, table4.body) == expected_tables(
            qstore, listing(qstore), window)
        assert date not in listing(qstore)[("linx", 4)]
