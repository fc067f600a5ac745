"""Unit tests for the write-ahead log and its value codec."""

import io

import pytest

from repro.db.wal import WriteAheadLog, decode_value, encode_value
from repro.errors import DatabaseError


def roundtrip(value):
    buf = io.BytesIO()
    encode_value(value, buf)
    return decode_value(io.BytesIO(buf.getvalue()))


def test_codec_roundtrips_scalars():
    for v in (None, 0, -5, 2**70, 3.14, -0.0, "", "héllo", b"", b"\x00\xff",
              [1, "a", None, [b"x"]]):
        got = roundtrip(v)
        if isinstance(v, tuple):
            v = list(v)
        assert got == v


def test_codec_rejects_bool_and_unknown():
    buf = io.BytesIO()
    with pytest.raises(DatabaseError):
        encode_value(True, buf)
    with pytest.raises(DatabaseError):
        encode_value(object(), buf)


def test_codec_truncated_raises():
    buf = io.BytesIO()
    encode_value("hello world", buf)
    data = buf.getvalue()
    with pytest.raises(DatabaseError, match="truncated"):
        decode_value(io.BytesIO(data[:-3]))


def test_wal_append_and_read():
    wal = WriteAheadLog()
    wal.append(("begin", 1))
    wal.append(("insert", 1, "t", 1, [1, "x", b"blob"]))
    wal.append(("commit", 1))
    records = list(wal.records())
    assert records == [
        ("begin", 1),
        ("insert", 1, "t", 1, [1, "x", b"blob"]),
        ("commit", 1),
    ]


def test_wal_torn_tail_ignored():
    wal = WriteAheadLog()
    wal.append(("begin", 1))
    size_after_first = wal.size()
    wal.append(("commit", 1))
    wal.truncate(size_after_first + 3)  # tear the second record
    assert list(wal.records()) == [("begin", 1)]


def test_wal_corrupt_frame_stops_replay():
    wal = WriteAheadLog()
    wal.append(("begin", 1))
    first = wal.size()
    wal.append(("commit", 1))
    wal.append(("begin", 2))
    wal.corrupt(first + 10)  # flip a byte inside the second record
    records = list(wal.records())
    assert records == [("begin", 1)]  # everything after the damage is dropped


def test_wal_snapshot_reload():
    wal = WriteAheadLog()
    wal.append(("x", 1))
    clone = WriteAheadLog(wal.snapshot())
    assert list(clone.records()) == [("x", 1)]


def test_wal_reset():
    wal = WriteAheadLog()
    wal.append(("x", 1))
    wal.reset()
    assert wal.size() == 0
    assert list(wal.records()) == []


def test_wal_len_counts_valid_records():
    wal = WriteAheadLog()
    for i in range(5):
        wal.append(("r", i))
    assert len(wal) == 5


def test_wal_taps_see_records_in_append_order():
    wal = WriteAheadLog()
    seen_a, seen_b = [], []
    wal.taps.append(seen_a.append)
    wal.taps.append(lambda rec: seen_b.append(rec))
    records = [("begin", 1), ("insert", 1, "t", 1, [1]), ("commit", 1)]
    for rec in records:
        wal.append(rec)
    assert seen_a == records
    assert seen_b == records


def test_observer_byte_gauge_consistent_under_rollback():
    """Sum of observer deltas tracks wal.size() — a rollback never had a
    frame, so the observer stays silent; the totals stay consistent on
    the commits around it."""
    from repro.db.engine import Database
    from repro.db.table import Column

    db = Database()
    db.create_table("t", [Column("a", "INT", primary_key=True)])
    deltas = []
    totals = []

    def observe(delta, total):
        deltas.append(delta)
        totals.append(total)

    db.wal.observer = observe
    base = db.wal.size()
    db.begin()
    db.insert("t", [1])
    db.insert("t", [2])
    db.rollback()
    assert db.count("t") == 0
    # The log never grew and nobody was told otherwise.
    assert deltas == [] and db.wal.size() == base
    # Committed work after the rollback keeps the same invariant.
    with db.transaction():
        db.insert("t", [3])
        db.insert("t", [4])
    assert len(deltas) == 1 and deltas[0] > 0  # one frame, one callback
    assert base + sum(deltas) == db.wal.size() == totals[-1]
