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


# -- the segment log: BLOBs by reference -------------------------------------

def _blob_db(blob, rows=1):
    from repro.db.engine import Database
    from repro.db.table import Column

    db = Database()
    db.create_table("exe", [Column("name", "TEXT", primary_key=True),
                            Column("data", "BLOB", nullable=False),
                            Column("size", "INT")])
    for i in range(rows):
        db.insert("exe", [f"x{i}", blob, len(blob)])
    return db


def allocated_by(fn):
    """Peak bytes *fn* allocates over what was live when it started."""
    import tracemalloc

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


def test_truncate_rejects_a_negative_length_on_a_multi_segment_log():
    db = _blob_db(b"\x01" * 5000, rows=3)
    wal = db.wal
    assert len(wal._segments) > 3
    image, calls = wal.snapshot(), []
    wal.observer = lambda delta, total: calls.append((delta, total))
    with pytest.raises(DatabaseError, match="truncate"):
        wal.truncate(-1)   # slice semantics would chop from the tail
    # At or past the end: nothing to chop, nobody told, nothing flattened.
    segments = list(wal._segments)
    wal.truncate(wal.size())
    wal.truncate(wal.size() + 10)
    assert calls == [] and wal.snapshot() == image
    assert all(a is b for a, b in zip(wal._segments, segments))
    wal.truncate(wal.size() - 1)
    assert calls == [(-1, len(image) - 1)]
    assert wal.snapshot() == image[:-1] and len(wal) == 3  # DDL + 2 rows


def test_corrupt_outside_the_log_is_a_no_op_on_a_multi_segment_log():
    wal = _blob_db(b"\x02" * 5000, rows=2).wal
    image, segments = wal.snapshot(), list(wal._segments)
    for offset in (-1, wal.size(), wal.size() + 7):
        wal.corrupt(offset)
    assert wal.snapshot() == image
    assert all(a is b for a, b in zip(wal._segments, segments))
    wal.corrupt(wal.size() - 1)     # the last frame's last byte
    assert wal.snapshot() == image[:-1] + bytes([image[-1] ^ 0xFF])
    assert len(wal) == 2


def test_a_stored_executable_is_logged_by_reference():
    from repro.db import DbManager
    from repro.hardware import Host, Network
    from repro.simkernel import Simulator
    from repro.workloads import make_payload

    sim = Simulator()
    manager = DbManager(Host(sim, "appliance", Network(sim)))
    sim.run(until=manager.store_executable(
        "big.bin", make_payload("fixed", size=2 << 20)))
    data = manager.db.get_by_pk("executables", "big.bin")["data"]
    assert len(data) > 1 << 20
    # The log's BLOB segment is the heap row's own bytes object...
    assert sum(seg is data for seg in manager.db.wal._segments) == 1
    # ...the image is still the framed encoding of it...
    assert data in manager.db.wal.snapshot()
    recovered = manager.recover_from_crash()
    assert recovered.db.get_by_pk("executables", "big.bin")["data"] == data
    # ...and appending such a frame allocates the small parts only.
    row = manager.db.tables["executables"].get(1)
    allocated, _ = allocated_by(lambda: manager.db.wal.append(
        ("txn", 99, [("insert", "executables", 1, row)])))
    assert allocated < 64 * 1024


def test_a_mutable_blob_is_copied_before_it_is_shared():
    blob = bytearray(b"\x07" * 4096)
    db = _blob_db(blob)
    db.wal.append(("raw", blob))          # straight into the codec, too
    image = db.wal.snapshot()
    blob[:] = b"\xff" * 4096              # the caller scribbles over it
    assert db.wal.snapshot() == image
    assert list(db.wal.records())[-1] == ("raw", b"\x07" * 4096)
    from repro.db.engine import Database
    assert (Database.recover(image).get_by_pk("exe", "x0")["data"]
            == b"\x07" * 4096)


def test_fault_drills_never_write_into_a_shared_blob():
    blob = bytes(range(256)) * 64
    db = _blob_db(blob, rows=2)
    shared = db.get_by_pk("exe", "x1")["data"]
    assert any(seg is shared for seg in db.wal._segments)
    at = db.wal.snapshot().rindex(blob)   # inside the second row's BLOB
    db.wal.corrupt(at + 100)
    assert len(db.wal) == 2               # the frame is damaged...
    assert shared == blob                 # ...the heap row is not
    db.wal.truncate(at + 50)
    assert shared == blob and len(db.wal) == 2
    assert db.get_by_pk("exe", "x0")["data"] == blob
    # The log goes on behind its private buffer, sharing again.
    db.insert("exe", ["x2", blob, 1])
    newest = db.get_by_pk("exe", "x2")["data"]
    assert db.wal._segments[-2] is newest and newest == blob


def test_recovering_a_blob_row_copies_it_once():
    from repro.db.engine import Database

    blob = bytes(range(256)) * (2 << 12)  # 2 MB
    image = _blob_db(blob).wal.snapshot()
    allocated, db = allocated_by(lambda: Database.recover(image))
    assert db.get_by_pk("exe", "x0")["data"] == blob
    assert allocated < 1.25 * len(blob)
    # The recovered database's fresh log shares that one copy.
    data = db.get_by_pk("exe", "x0")["data"]
    assert any(seg is data for seg in db.wal._segments)
