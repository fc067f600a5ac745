"""Property-based tests: SQL engine vs an in-memory oracle, WAL recovery."""

import io
import random
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule)

from repro.db import Database, DbManager
from repro.db import engine
from repro.db.dbmanager import DbTierConfig, StoredExecutable
from repro.db.replica import ReadReplica
from repro.db.table import Column
from repro.db.wal import (
    WriteAheadLog, _encode_items, decode_value, encode_value)
from repro.errors import DatabaseError, RecordNotFound
from repro.hardware import Host, Network
from repro.hardware.host import HostSpec
from repro.simkernel import Simulator
from repro.telemetry.events import bus
from repro.units import MB

values = st.one_of(
    st.none(),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=50),
    st.binary(max_size=50),
)


@given(st.lists(values, max_size=10))
def test_wal_codec_roundtrip(items):
    buf = io.BytesIO()
    encode_value(items, buf)
    assert decode_value(io.BytesIO(buf.getvalue())) == items


def _reference_encode(value, out):
    """The recursive encoder the flat pass replaced, kept as reference."""
    if value is None:
        out.write(b"N")
    elif isinstance(value, bool):
        raise DatabaseError("booleans are not storable")
    elif isinstance(value, int):
        raw = str(value).encode()
        out.write(b"I" + struct.pack("<I", len(raw)) + raw)
    elif isinstance(value, float):
        out.write(b"R" + struct.pack("<d", value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.write(b"S" + struct.pack("<I", len(raw)) + raw)
    elif isinstance(value, (bytes, bytearray)):
        out.write(b"B" + struct.pack("<I", len(value)) + bytes(value))
    elif isinstance(value, (list, tuple)):
        out.write(b"L" + struct.pack("<I", len(value)))
        for item in value:
            _reference_encode(item, out)
    else:
        raise DatabaseError(f"cannot encode {type(value).__name__}")


class _Text(str):
    """A subclass: the flat encoder's exact-type dispatch must not drop it."""


encodable = st.recursive(
    st.one_of(values, st.booleans(), st.just({"a": 1}),
              st.binary(max_size=8).map(bytearray),
              st.text(max_size=8).map(_Text)),
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.lists(inner, max_size=5).map(tuple)),
    max_leaves=25)


@given(encodable)
def test_flat_encoder_is_byte_identical_to_the_recursive_one(value):
    want, got = io.BytesIO(), io.BytesIO()
    try:
        _reference_encode(value, want)
    except DatabaseError as exc:
        with pytest.raises(DatabaseError) as caught:
            encode_value(value, got)
        assert str(caught.value) == str(exc)
        return
    encode_value(value, got)
    assert got.getvalue() == want.getvalue()
    # ...and a log frame is exactly that payload behind its header.
    wal = WriteAheadLog()
    wal.append((value,))
    want_frame = io.BytesIO()
    _reference_encode([value], want_frame)
    assert wal.snapshot()[8:] == want_frame.getvalue()


# Operations applied both to the engine and a plain-dict oracle.
ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 30),
                  st.text(max_size=8)),
        st.tuples(st.just("delete"), st.integers(0, 30)),
        st.tuples(st.just("update"), st.integers(0, 30),
                  st.text(max_size=8)),
    ),
    max_size=40,
)


@settings(max_examples=50)
@given(ops)
def test_engine_matches_dict_oracle(operations):
    db = Database()
    db.create_table("t", [Column("k", "INT", primary_key=True),
                          Column("v", "TEXT")])
    oracle = {}
    for op in operations:
        if op[0] == "insert":
            _, k, v = op
            if k in oracle:
                continue  # duplicate pk: skip in both worlds
            db.insert("t", [k, v])
            oracle[k] = v
        elif op[0] == "delete":
            _, k = op
            db.delete_where("t", lambda r, k=k: r["k"] == k)
            oracle.pop(k, None)
        else:
            _, k, v = op
            db.update_where("t", {"v": v}, lambda r, k=k: r["k"] == k)
            if k in oracle:
                oracle[k] = v
    got = {r["k"]: r["v"] for r in db.select("t")}
    assert got == oracle


@settings(max_examples=50)
@given(ops)
def test_recovery_equals_live_state(operations):
    """Recovering from the WAL reproduces exactly the committed state."""
    db = Database()
    db.create_table("t", [Column("k", "INT", primary_key=True),
                          Column("v", "TEXT")])
    seen = set()
    for op in operations:
        if op[0] == "insert":
            _, k, v = op
            if k in seen:
                continue
            db.insert("t", [k, v])
            seen.add(k)
        elif op[0] == "delete":
            _, k = op
            db.delete_where("t", lambda r, k=k: r["k"] == k)
            seen.discard(k)
        else:
            _, k, v = op
            db.update_where("t", {"v": v}, lambda r, k=k: r["k"] == k)
    recovered = Database.recover(db.wal.snapshot())
    assert recovered.select("t") == db.select("t")


@settings(max_examples=50)
@given(ops, st.integers(min_value=0, max_value=100000))
def test_recovery_from_any_truncation_never_crashes(operations, cut):
    """However the WAL is torn, recovery yields a consistent database."""
    db = Database()
    db.create_table("t", [Column("k", "INT", primary_key=True),
                          Column("v", "TEXT")])
    seen = set()
    for op in operations:
        if op[0] == "insert" and op[1] not in seen:
            db.insert("t", [op[1], op[2]])
            seen.add(op[1])
        elif op[0] == "delete":
            db.delete_where("t", lambda r, k=op[1]: r["k"] == k)
            seen.discard(op[1])
    image = db.wal.snapshot()
    recovered = Database.recover(image[: min(cut, len(image))])
    # Whatever survived must be internally consistent: pk map == rows.
    rows = recovered.select("t") if "t" in recovered.tables else []
    keys = [r["k"] for r in rows]
    assert len(keys) == len(set(keys))


@settings(max_examples=30)
@given(st.lists(st.tuples(st.integers(0, 20), st.text(max_size=5)),
                min_size=1, max_size=20))
def test_rollback_is_exact_inverse(rows):
    db = Database()
    db.create_table("t", [Column("k", "INT"), Column("v", "TEXT")])
    db.insert("t", [999, "sentinel"])
    before = db.select("t")
    db.begin()
    for k, v in rows:
        db.insert("t", [k, v])
    db.update_where("t", {"v": "mutated"})
    db.delete_where("t", lambda r: r["k"] < 10)
    db.rollback()
    assert db.select("t") == before


# ------------------------------------------------- keyed vs predicate DML
#
# The keyed calls (find_eq / update_eq / delete_eq) must be a pure access
# path change: applied to two databases — one through the keyed form,
# one through the equivalent equality lambda — any interleaving of
# writes and transactions leaves the same heap, the same
# index contents, the same WAL bytes and the same recovered state.

COLUMNS = ("k", "g", "s", "v")          # pk / hash idx / hash idx / none
keys = st.integers(0, 12)
groups = st.one_of(st.none(), st.sampled_from(["a", "b", "c"]))
scores = st.one_of(st.none(), st.integers(0, 4).map(float))
texts = st.sampled_from(["x", "y", "z"])
# What a caller may compare a column with: its own kind of value, NULL,
# or something of the wrong type (unhashable included).
probes = st.one_of(keys, groups, scores, texts, st.just([1]),
                   st.just(bytearray(b"g")))
changes = st.fixed_dictionaries({}, optional={
    "g": groups, "s": scores, "v": texts}).filter(bool)

statements = st.one_of(
    st.tuples(st.just("insert"), keys, groups, scores, texts),
    st.tuples(st.just("upsert"), keys, groups, scores, texts),
    st.tuples(st.just("update_eq"), st.sampled_from(COLUMNS), probes,
              changes),
    st.tuples(st.just("delete_eq"), st.sampled_from(COLUMNS), probes),
    st.tuples(st.just("find_eq"), st.sampled_from(COLUMNS), probes),
    st.tuples(st.just("update_lt"), st.integers(0, 4), changes),
    st.tuples(st.just("delete_lt"), st.integers(0, 4)),
)
# ``with db.transaction():`` around a few statements, optionally failing
# at the end: opens its own unit, or joins the one a "begin" left open.
units = st.tuples(st.just("unit"), st.lists(statements, max_size=3),
                  st.booleans())
keyed_ops = st.lists(
    st.one_of(
        statements, units,
        st.tuples(st.sampled_from(["begin", "commit", "rollback"])),
    ),
    max_size=40,
)


def _keyed_db(indexed, mvcc):
    db = Database(mvcc=mvcc)
    db.create_table("t", [Column("k", "INT", primary_key=True),
                          Column("g", "TEXT"), Column("s", "REAL"),
                          Column("v", "TEXT", nullable=False)])
    if indexed:
        db.create_index("t", "g", "hash")
        db.create_index("t", "s", "hash")
    return db


def _below(bound):
    return lambda r: r["s"] is not None and r["s"] < bound


def _apply(db, op, keyed):
    """Run one op; returns what the caller would observe."""
    kind = op[0]
    if kind == "insert":
        return db.insert("t", list(op[1:]))
    if kind == "upsert":
        return db.upsert("t", list(op[1:]))
    if kind == "unit":
        with db.transaction():
            out = [_outcome(db, sub, keyed) for sub in op[1]]
            if op[2]:
                raise RuntimeError(f"unit failed after {out}")
        return out
    if kind == "update_eq":
        _, col, value, updates = op
        if keyed:
            return db.update_eq("t", col, value, updates)
        return db.update_where("t", updates, lambda r: r[col] == value)
    if kind == "delete_eq":
        _, col, value = op
        if keyed:
            return db.delete_eq("t", col, value)
        return db.delete_where("t", lambda r: r[col] == value)
    if kind == "find_eq":
        _, col, value = op
        if keyed:
            return db.find_eq("t", col, value)
        return db.select("t", lambda r: r[col] == value)
    if kind == "update_lt":
        return db.update_where("t", op[2], _below(op[1]))
    if kind == "delete_lt":
        return db.delete_where("t", _below(op[1]))
    return getattr(db, kind)()          # begin / commit / rollback


def _outcome(db, op, keyed):
    try:
        return _apply(db, op, keyed)
    except AssertionError:    # a check inside a test double: not an outcome
        raise
    except Exception as exc:  # duplicate key, txn misuse: same in both
        return type(exc), str(exc)


def _state(db):
    """Heap in scan order, primary-key map and every index's contents."""
    tbl = db.tables["t"]
    indexes = {key: index._map for key, index in db._indexes.items()}
    return list(tbl.scan()), tbl._pk_map, indexes


@settings(max_examples=120, deadline=None)
@given(keyed_ops, st.booleans(), st.booleans())
def test_keyed_dml_is_only_an_access_path(operations, indexed, mvcc):
    keyed, scanned = _keyed_db(indexed, mvcc), _keyed_db(indexed, mvcc)
    for op in operations:
        assert (_outcome(keyed, op, True)
                == _outcome(scanned, op, False)), op
    assert _state(keyed) == _state(scanned)
    image = keyed.wal.snapshot()
    assert image == scanned.wal.snapshot()
    # Recovery sees only committed work — and indexes it the same way a
    # database that never had the keyed calls would.
    recovered = Database.recover(image)
    twin = Database.recover(scanned.wal.snapshot())
    assert _state(recovered) == _state(twin)
    if keyed._active_txn is None:
        assert recovered.select("t") == keyed.select("t")
        for col in COLUMNS:
            for row in keyed.select("t"):
                assert (recovered.find_eq("t", col, row[col])
                        == keyed.find_eq("t", col, row[col]))


# ------------------------------------- one frame per committed transaction
#
# The log used to frame a transaction as three kinds of record — begin,
# one per changed row, commit (or abort) — and recovery / replicas made
# it atomic by looking for the commit.  That framing stays here as the
# reference: every frame the engine writes is expanded back into it,
# every rollback (which now writes nothing) is entered as begin … abort,
# a crash leaves its torn transaction as begin … with no commit, and the
# old two-pass recovery over that stream must land where the engine
# and its replica do.


def reference_frames(txn):
    """The records the three-record framing held for one ``txn`` frame."""
    _, txn_id, dml = txn
    return ([("begin", txn_id)]
            + [(entry[0], txn_id, *entry[1:]) for entry in dml]
            + [("commit", txn_id)])


def reference_recover(records):
    """Recovery as it was: DDL as it comes, DML only for ids whose
    commit record made it.  Returns ({table: {rowid: row}}, {indexes})."""
    committed = {r[1] for r in records if r[0] == "commit"}
    tables, indexes = {}, set()
    for record in records:
        op = record[0]
        if op == "create_table":
            tables[record[1]] = {}
        elif op == "create_index" and record[1] in tables:
            indexes.add((record[1], record[2]))
        elif op in ("insert", "delete", "update"):
            _, txn_id, table, rowid = record[:4]
            if txn_id not in committed or table not in tables:
                continue
            if op == "delete":
                del tables[table][rowid]
            else:
                tables[table][rowid] = tuple(record[-1])
    return tables, indexes


class _ReferenceLog:
    """Shadows a database's log in the three-record framing and checks,
    as it goes, that only a commit with work in it touches the log."""

    def __init__(self, db):
        self.db = db
        # One entry per frame the engine wrote — (True, its reference
        # records) — and per rollback, which wrote none: (False, ...).
        self.units = [(True, [r]) for r in db.wal.records()]
        self.calls = 0
        db.wal.taps.append(self._on_frame)
        db.wal.observer = self._on_bytes
        self._commit, self._rollback = db.commit, db.rollback
        db.commit, db.rollback = self.commit, self.rollback

    def _on_frame(self, record):
        self.calls += 1
        self.units.append((True, reference_frames(record)
                           if record[0] == "txn" else [record]))

    def _on_bytes(self, delta, total):
        self.calls += 1
        assert delta > 0 and total == self.db.wal.size()

    def _torn(self):
        """The open transaction as a crash leaves it: no commit record."""
        if self.db._active_txn is None:
            return []
        return reference_frames(("txn", self.db._active_txn,
                                 self.db._txn_dml))[:-1]

    def commit(self):
        work = bool(self.db._txn_dml) and self.db._active_txn is not None
        before = (self.db.wal.size(), self.calls)
        self._commit()
        after = (self.db.wal.size(), self.calls)
        if work:    # one frame: one tap call, one observer call
            assert after[0] > before[0] and after[1] == before[1] + 2
        else:
            assert after == before

    def rollback(self):
        aborted = self._torn()
        before = (self.db.wal.size(), self.calls)
        self._rollback()
        assert (self.db.wal.size(), self.calls) == before
        if aborted:
            self.units.append((False, aborted + [("abort", aborted[0][1])]))

    def records(self, frames=None):
        """The reference stream; with *frames*, as a crash that tore the
        engine's log after that many frames would have left it."""
        out, seen = [], 0
        for framed, records in self.units:
            if framed and seen == frames:
                # The torn frame: its records reached the old log one by
                # one, its commit never did.
                return out + (records[:-1] if records[0][0] == "begin"
                              else [])
            seen += framed
            out += records
        return out + self._torn()


def _expect(db, reference):
    """*db* holds exactly what reference recovery says, indexes included."""
    tables, indexes = reference
    assert set(db.tables) == set(tables)
    assert set(db._indexes) == indexes
    for name, rows in tables.items():
        assert dict(db.tables[name].scan()) == rows
        assert db.tables[name]._pk_map == {
            row[0]: rowid for rowid, row in rows.items()}
    for (table, column), index in db._indexes.items():
        pos = db.tables[table].schema.index_of(column)
        want = {}
        for rowid, row in tables[table].items():
            want.setdefault(row[pos], set()).add(rowid)
        assert index._map == want


@settings(max_examples=150, deadline=None)
@given(keyed_ops, st.booleans(), st.booleans(),
       st.floats(min_value=0.0, max_value=1.0))
def test_one_frame_per_transaction_matches_three_record_framing(
        operations, indexed, mvcc, cut):
    db = _keyed_db(indexed, mvcc)
    replica = ReadReplica(Simulator(), db, lag=0.0)
    log = _ReferenceLog(db)
    for op in operations:
        joined, size = db._active_txn, db.wal.size()
        _outcome(db, op, True)
        if joined is not None and op[0] not in ("commit", "rollback"):
            # Statements and ``transaction()`` blocks join the open
            # unit: the outermost scope decides, and until it does
            # the log does not move.
            assert db._active_txn == joined and db.wal.size() == size

    # The replica applied frame by frame what the reference commits —
    # and nothing of a transaction still open.
    replica.catch_up()
    _expect(replica.db, reference_recover(log.records()))
    # A crash at any byte: recovery of the torn log lands where the
    # reference recovery of the equally torn reference stream does.
    image = db.wal.snapshot()
    torn = image[:int(cut * len(image))]
    survived = len(WriteAheadLog(torn))
    for image_, frames in ((torn, survived), (image, None)):
        recovered = Database.recover(image_)
        _expect(recovered, reference_recover(log.records(frames)))
        # The recovered database logs on from there, frame by frame.
        if "t" in recovered.tables:
            recovered.upsert("t", [0, "a", 1.0, "x"])
            again = Database.recover(recovered.wal.snapshot())
            assert (dict(again.tables["t"].scan())
                    == dict(recovered.tables["t"].scan()))
    # And the live database, once whatever is still open is undone, is
    # that same committed state: the log and the heap never disagree.
    if db._active_txn is not None:
        db.rollback()
    _expect(db, reference_recover(log.records()))


# -- the segment log vs the flat buffer it replaced -------------------------

def _reference_decode(buf):
    """The stream decoder the in-place one replaced, kept as reference."""
    def need(n):
        data = buf.read(n)
        if len(data) != n:
            raise DatabaseError("truncated value")
        return data

    tag = buf.read(1)
    if not tag:
        raise DatabaseError("truncated value")
    if tag == b"N":
        return None
    if tag == b"I":
        (n,) = struct.unpack("<I", need(4))
        return int(need(n).decode())
    if tag == b"R":
        (v,) = struct.unpack("<d", need(8))
        return v
    if tag == b"S":
        (n,) = struct.unpack("<I", need(4))
        return need(n).decode("utf-8")
    if tag == b"B":
        (n,) = struct.unpack("<I", need(4))
        return need(n)
    if tag == b"L":
        (n,) = struct.unpack("<I", need(4))
        return [_reference_decode(buf) for _ in range(n)]
    raise DatabaseError(f"unknown value tag {tag!r}")


_FRAME_HEADER = struct.Struct("<II")


class reference_log:
    """The log as one ever-growing ``bytearray`` — what the segment log
    replaced, verbatim: every frame is joined, prefixed and extended into
    the buffer (three copies of a BLOB), reading copies each payload out
    through a ``BytesIO``."""

    def __init__(self, data=b""):
        self._buf = bytearray(data)
        self.observer = None
        self.taps = []

    def append(self, record):
        parts = []
        _encode_items((record,), parts.append, parts.append)
        payload = b"".join(parts)
        frame = _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        self._buf.extend(frame)
        if self.observer is not None:
            self.observer(len(frame), len(self._buf))
        for tap in self.taps:
            tap(record)
        return len(frame)

    def snapshot(self):
        return bytes(self._buf)

    def size(self):
        return len(self._buf)

    def truncate(self, nbytes):
        before = len(self._buf)
        del self._buf[nbytes:]
        if self.observer is not None and len(self._buf) != before:
            self.observer(len(self._buf) - before, len(self._buf))

    def corrupt(self, offset):
        if 0 <= offset < len(self._buf):
            self._buf[offset] ^= 0xFF

    def reset(self):
        before = len(self._buf)
        self._buf.clear()
        if self.observer is not None and before:
            self.observer(-before, 0)

    def records(self):
        pos = 0
        buf = self._buf
        while pos + 8 <= len(buf):
            length, crc = struct.unpack_from("<II", buf, pos)
            start = pos + 8
            end = start + length
            if end > len(buf):
                return  # torn tail
            payload = bytes(buf[start:end])
            if zlib.crc32(payload) != crc:
                return  # corrupt frame
            try:
                record = _reference_decode(io.BytesIO(payload))
            except DatabaseError:
                return
            yield tuple(record)
            pos = end

    def __len__(self):
        return sum(1 for _ in self.records())


# BLOBs of 0 B - 256 KB, cheap to draw and to shrink: a fill byte and a
# length; every other one arrives as a ``bytearray``.
blobs = st.builds(
    lambda fill, n, mutable: (bytearray if mutable else bytes)(
        bytes([fill, fill ^ 0x5A]) * (n // 2) + bytes([fill]) * (n % 2)),
    st.integers(0, 255),
    st.one_of(st.integers(0, 40),
              st.sampled_from([4095, 65536, 200001, 262144])),
    st.booleans())
# Rows with the BLOB first, last, in the middle, several, or none.
rows = st.lists(st.one_of(values, blobs), max_size=6).map(tuple)
log_records = st.one_of(
    st.tuples(st.just("ddl"), st.text(max_size=8)),
    st.tuples(st.just("txn"), st.integers(1, 99),
              st.lists(st.tuples(st.sampled_from(["insert", "delete"]),
                                 st.just("t"), st.integers(1, 9), rows),
                       min_size=1, max_size=3)))
# Where a drill strikes: a fraction of the log, or a byte offset near its
# start; either may fall outside it.
offsets = st.one_of(st.floats(-0.1, 1.1), st.integers(-4, 64))
log_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), log_records),
        st.tuples(st.just("append"), log_records),
        st.tuples(st.sampled_from(["truncate", "corrupt"]), offsets),
        st.tuples(st.sampled_from(["reset", "snapshot", "reload"])),
    ),
    max_size=14)


@settings(max_examples=120, deadline=None)
@given(log_ops)
def test_segment_log_matches_flat_log(operations):
    seen = {"ref": ([], []), "seg": ([], [])}   # observer calls, tap calls

    def watch(log, key):
        calls, tapped = seen[key]
        log.observer = lambda delta, total: calls.append((delta, total))
        log.taps.append(tapped.append)
        return log

    ref, seg = watch(reference_log(), "ref"), watch(WriteAheadLog(), "seg")
    for op, *args in operations:
        if op in ("truncate", "corrupt"):
            at = args[0]
            at = int(at * ref.size()) if isinstance(at, float) else at
            # A negative length is refused now; the flat log sliced.
            args = [max(at, 0) if op == "truncate" else at]
        if op == "reload":
            # A WriteAheadLog(image) round trip: recovery's way in.
            ref = watch(reference_log(ref.snapshot()), "ref")
            seg = watch(WriteAheadLog(seg.snapshot()), "seg")
        elif op == "snapshot":
            assert seg.snapshot() == ref.snapshot()
            assert list(seg.records()) == list(ref.records())
        else:
            assert getattr(seg, op)(*args) == getattr(ref, op)(*args)
        assert seg.size() == ref.size()
    image = seg.snapshot()
    assert type(image) is bytes and image == ref.snapshot()
    assert len(image) == seg.size()
    assert list(seg.records()) == list(ref.records())
    assert len(seg) == len(ref)
    assert seen["seg"] == seen["ref"]
    # The image recovers the same from either side.
    assert (list(WriteAheadLog(image).records())
            == list(reference_log(image).records()))


# -- the log's lifetime: compaction, the floor, late replicas ------------------


class LogLifetime(RuleBasedStateMachine):
    """Any interleaving of DML, transactions, compactions (forced, and
    the engine's own under a tiny floor), crashes at any byte, media
    corruption and replicas attached before or after a compaction keeps
    the log, the heap and every replica telling one story."""

    def __init__(self):
        super().__init__()
        self.floor = engine._COMPACT_FLOOR

    def teardown(self):
        engine._COMPACT_FLOOR = self.floor

    @initialize(floor=st.sampled_from([64, 1 << 60]), mvcc=st.booleans())
    def fresh(self, floor, mvcc):
        engine._COMPACT_FLOOR = floor
        self.sim = Simulator()
        self.adopt(Database(mvcc=mvcc))
        # The never-compacted log, shadowed by the flat one it replaced.
        self.flat = reference_log(self.db.wal.snapshot())
        self.db.wal.taps.append(self.flat.append)

    def adopt(self, db):
        """*db* is the primary from here on (fresh, or just recovered)."""
        self.db, self.replicas, self.flat = db, [], None
        self.history = [self.heap(db)]   # committed states, oldest first
        self.durable = 0                 # history index of the last image
        self.compactions = db.stats["compactions"]
        if "t" not in db.tables:         # new, or cut below its DDL
            db.create_table("t", [Column("k", "INT", primary_key=True),
                                  Column("v", "TEXT"), Column("b", "BLOB")])
        if not db._indexes:
            db.create_index("t", "v", "hash")
        self.committed()

    @staticmethod
    def heap(db):
        return {name: dict(tbl.scan()) for name, tbl in db.tables.items()}

    def committed(self):
        """Called after anything that may have committed."""
        if self.db._active_txn is None:
            if self.heap(self.db) != self.history[-1]:
                self.history.append(self.heap(self.db))
            if self.db.stats["compactions"] != self.compactions:
                self.compactions = self.db.stats["compactions"]
                self.durable, self.flat = len(self.history) - 1, None

    @rule(k=st.integers(0, 6), v=st.text(max_size=4),
          b=st.one_of(st.none(), st.binary(max_size=48)))
    def upsert(self, k, v, b):
        self.db.upsert("t", [k, v, b])
        self.committed()

    @rule(k=st.integers(0, 6))
    def delete(self, k):
        self.db.delete_eq("t", "k", k)
        self.committed()

    @precondition(lambda self: self.db._active_txn is None)
    @rule()
    def begin(self):
        self.db.begin()

    @precondition(lambda self: self.db._active_txn is not None)
    @rule(keep=st.booleans())
    def end(self, keep):
        self.db.commit() if keep else self.db.rollback()
        self.committed()

    @precondition(lambda self: self.db._active_txn is None)
    @rule()
    def checkpoint(self):
        self.db.checkpoint()
        self.committed()
        assert self.durable == len(self.history) - 1

    @precondition(lambda self: self.db._active_txn is None)
    @rule()
    def attach_replica(self):
        self.replicas.append(ReadReplica(self.sim, self.db, lag=0.0))

    @rule(at=st.floats(0.0, 1.0), tear=st.booleans())
    def crash(self, at, tear):
        """Truncate (or corrupt) the log at any byte and go on from what
        recovery makes of it."""
        wal = self.db.wal
        held = [(v, bytearray(v)) for rows in self.heap(self.db).values()
                for row in rows.values() for v in row if type(v) is bytes]
        offset = int(at * wal.size())
        if tear:
            wal.truncate(offset)
            assert wal.size() >= wal._floor
        else:
            wal.corrupt(offset)
        # Neither drill writes into a BLOB the log shares with a heap row.
        assert all(v == copy for v, copy in held)
        recovered = Database.recover(wal.snapshot())
        if tear or offset >= wal._floor:
            # A committed prefix, never older than the last compaction.
            assert self.heap(recovered) in self.history[self.durable:]
        self.adopt(recovered)

    @invariant()
    def one_story(self):
        if not hasattr(self, "db"):
            return
        db, committed = self.db, self.history[-1]
        if db._active_txn is None:
            assert self.heap(db) == committed
        recovered = Database.recover(db.wal.snapshot())
        assert self.heap(recovered) == committed
        assert set(recovered._indexes) == set(db._indexes)
        for replica in self.replicas:
            replica.catch_up()
            assert self.heap(replica.db) == committed
        if self.flat is not None:
            assert db.wal.snapshot() == self.flat.snapshot()


LogLifetime.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
test_log_lifetime = LogLifetime.TestCase


# -- derive once: the inflate memo vs the load path it replaced ---------------


class reference_manager(DbManager):
    """``DbManager`` with the load path the inflate memo replaced, verbatim:
    every fetch inflates the BLOB again (``zlib.decompress``, or a
    ``decompressobj`` fed one slice per chunk and joined), and every
    returned object hashes its own payload."""

    def load_executable(self, name, on_chunk=None):
        def op():
            waited = 0.0
            locked = False
            if self.tier.serialize and not self.tier.mvcc:
                waited = yield from self._acquire_conn()
                locked = True
            try:
                yield self.host.compute(self.costs.statement_cpu, tag="db")
                record = (self._committed_read(name) if self.tier.mvcc
                          else self.db.get_by_pk(self.TABLE, name))
                if self.tier.chunk_bytes > 0:
                    if locked:
                        self._release_conn()
                        locked = False
                    return (yield from self._fetch_chunked(
                        name, record, on_chunk, waited))
                yield self.host.disk_read(record["compressed_size"])
                if locked:
                    self._release_conn()
                    locked = False
                yield self.host.compute(
                    self.costs.decompress_cpu_per_mb * record["size"] / MB(1),
                    tag="db",
                )
                payload = zlib.decompress(record["data"])
                self._emit_fetch(name, "whole", record["size"], 1,
                                 record["size"], waited)
                return StoredExecutable(
                    name=record["name"],
                    payload=payload,
                    description=record["description"],
                    params_spec=record["params_spec"],
                    compressed_size=record["compressed_size"],
                    stored_at=record["stored_at"],
                )
            finally:
                if locked:
                    self._release_conn()

        return self.sim.process(op(), name=f"db-load:{name}")

    def _fetch_chunked(self, name, record, on_chunk, waited):
        size = int(record["size"])
        csize = record["compressed_size"]
        data = record["data"]
        chunk = self.tier.chunk_bytes
        n = max(1, (size + chunk - 1) // chunk) if size > 0 else 1
        decomp = zlib.decompressobj()
        parts = []
        resident = 0.0
        peak = 0.0
        consumer = None
        prev_bytes = 0.0
        for i in range(n):
            this_bytes = float(min(chunk, size - i * chunk)) if size else 0.0
            lo = i * len(data) // n
            hi = (i + 1) * len(data) // n
            self.host.allocate_memory(this_bytes)
            resident += this_bytes
            peak = max(peak, resident)
            self._set_chunk_stream(resident)
            yield self.host.disk_read(csize / n)
            yield self.host.compute(
                self.costs.decompress_cpu_per_mb * this_bytes / MB(1),
                tag="db",
            )
            part = decomp.decompress(data[lo:hi])
            if i == n - 1:
                part += decomp.flush()
            parts.append(part)
            if on_chunk is not None:
                if consumer is not None:
                    yield consumer
                    self.host.release_memory(prev_bytes)
                    resident -= prev_bytes
                    self._set_chunk_stream(resident)
                consumer = self.sim.process(on_chunk(this_bytes),
                                            name=f"db-chunk:{name}:{i}")
            elif i > 0:
                self.host.release_memory(prev_bytes)
                resident -= prev_bytes
                self._set_chunk_stream(resident)
            prev_bytes = this_bytes
        if consumer is not None:
            yield consumer
        self.host.release_memory(prev_bytes)
        resident -= prev_bytes
        self._set_chunk_stream(resident)
        self._emit_fetch(name, "chunked", size, n, peak, waited)
        return StoredExecutable(
            name=record["name"],
            payload=b"".join(parts),
            description=record["description"],
            params_spec=record["params_spec"],
            compressed_size=record["compressed_size"],
            stored_at=record["stored_at"],
        )

    def recover_from_crash(self):
        image = self.db.wal.snapshot()
        recovered = Database.recover(image)
        return reference_manager(self.host, db=recovered, costs=self.costs,
                                 tier=self.tier)


def manager_on_fresh_host(cls, tier):
    """(sim, host, manager, the ``db.fetch`` events it will emit)."""
    sim = Simulator()
    host = Host(sim, "appliance", Network(sim),
                HostSpec(cores=2, disk_bandwidth=MB(50), disk_latency=0.0))
    fetches = []
    bus(sim).subscribe(lambda ev: fetches.append(dict(ev.fields)),
                       kinds=("db.fetch",))
    return sim, host, cls(host, tier=tier), fetches


# 0 B - 40 KB, compressible or not; with ``chunk_bytes = 4096`` below that
# is 1 to 10 chunks.
executables = st.builds(
    lambda seed, n, noisy: (random.Random(seed).randbytes(n) if noisy
                            else bytes([seed]) * n),
    st.integers(0, 255), st.sampled_from([0, 1, 700, 4096, 9000, 40000]),
    st.booleans())
names = st.sampled_from(["a.sh", "b.sh", "c.sh"])
manager_ops = st.lists(
    st.one_of(
        st.tuples(st.just("store"), names, executables),
        st.tuples(st.just("store"), names, executables),
        st.tuples(st.just("load"), names, st.integers(1, 4), st.booleans()),
        st.tuples(st.just("load"), names, st.integers(1, 4), st.booleans()),
        st.tuples(st.just("delete"), names),
        st.tuples(st.just("recover")),
    ),
    max_size=12)


@settings(max_examples=60, deadline=None)
@given(manager_ops, st.booleans(), st.booleans())
def test_inflate_memo_is_invisible_next_to_the_uncached_load(
        operations, chunked, mvcc):
    # [sim, host, manager, db.fetch events] of the reference and the memo.
    sides = [list(manager_on_fresh_host(cls, DbTierConfig(
        mvcc=mvcc, chunk_bytes=4096 if chunked else 0)))
        for cls in (reference_manager, DbManager)]
    def to_temp(host, nbytes):
        yield host.disk_write(nbytes)

    def both(start):
        """Run ``start(manager, host)`` to completion on either side."""
        out = []
        for sim, host, mgr, _ in sides:
            try:
                out.append(("ok", sim.run(until=start(mgr, host))))
            except RecordNotFound as exc:
                out.append(("missing", str(exc)))
        return out

    for op, *args in operations:
        if op == "store":
            name, payload = args
            want, got = both(lambda mgr, host: mgr.store_executable(
                name, payload, "d", "p:string"))
            # The value is the stored version, the same on either side.
            assert got[0] == want[0] == "ok"
            assert vars(got[1]) == vars(want[1])
        elif op == "delete":
            want, got = both(
                lambda mgr, host: mgr.delete_executable(args[0]))
            assert got == want
        elif op == "recover":
            for side in sides:
                side[2] = side[2].recover_from_crash()
            assert type(sides[1][2]) is DbManager
        else:
            name, times, consume = args
            for _ in range(times):
                want, got = both(lambda mgr, host: mgr.load_executable(
                    name, on_chunk=(lambda n: to_temp(host, n))
                    if consume and chunked else None))
                assert got[0] == want[0]
                if got[0] == "missing":
                    assert got == want
                    continue
                exe, ref_exe = got[1], want[1]
                assert exe.payload == ref_exe.payload
                assert exe.digest == ref_exe.digest
                assert vars(exe) == vars(ref_exe)
        (ref_sim, ref_host, _, ref_fetches), (sim, host, mgr, fetches) = sides
        assert sim.now == ref_sim.now
        assert sim.events_processed == ref_sim.events_processed
        assert ((host.memory_used, host.memory_peak)
                == (ref_host.memory_used, ref_host.memory_peak))
        assert fetches == ref_fetches
    # Retention: the (current) manager's memo holds one version per
    # name, the current row's, whether stored or fetched.  Nothing here
    # comes near the budget.
    mgr = sides[1][2]
    for name, (data, exe, pinned) in mgr._memo._entries.items():
        row = mgr.db.get_by_pk(mgr.TABLE, name)
        assert data is row["data"] and exe.name == name
        assert exe.payload == zlib.decompress(data)
        assert exe.stored_at == row["stored_at"]
        assert pinned == len(data) + exe.size
