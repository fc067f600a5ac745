"""Property-based tests: SQL engine vs an in-memory oracle, WAL recovery."""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.db.index import HashIndex
from repro.db.table import Column
from repro.db.wal import decode_value, encode_value

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
# writes, transactions and snapshot reads leaves the same heap, the same
# index contents, the same WAL bytes and the same recovered state.

COLUMNS = ("k", "g", "s", "v")          # pk / hash idx / sorted idx / none
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

keyed_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), keys, groups, scores, texts),
        st.tuples(st.just("update_eq"), st.sampled_from(COLUMNS), probes,
                  changes),
        st.tuples(st.just("delete_eq"), st.sampled_from(COLUMNS), probes),
        st.tuples(st.just("find_eq"), st.sampled_from(COLUMNS), probes),
        st.tuples(st.just("update_lt"), st.integers(0, 4), changes),
        st.tuples(st.just("delete_lt"), st.integers(0, 4)),
        st.tuples(st.sampled_from(["begin", "commit", "rollback",
                                   "snap_open", "snap_read", "snap_close"])),
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
        db.create_index("t", "s", "sorted")
    return db


def _below(bound):
    return lambda r: r["s"] is not None and r["s"] < bound


def _apply(db, op, keyed, snaps):
    """Run one op; returns what the caller would observe."""
    kind = op[0]
    if kind == "insert":
        return db.insert("t", list(op[1:]))
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
    if kind == "snap_open":
        snaps.append(db.snapshot())
        return None
    if kind == "snap_read":
        return [(s.select("t"), s.find_eq("t", "g", "a"), s.count("t"))
                for s in snaps]
    if kind == "snap_close":
        return snaps.pop().close() if snaps else None
    return getattr(db, kind)()          # begin / commit / rollback


def _outcome(db, op, keyed, snaps):
    try:
        return _apply(db, op, keyed, snaps)
    except Exception as exc:  # duplicate key, txn misuse: same in both
        return type(exc), str(exc)


def _state(db):
    """Heap in scan order, primary-key map and every index's contents."""
    tbl = db.tables["t"]
    indexes = {key: (index._map if isinstance(index, HashIndex)
                     else index._entries)
               for key, index in db._indexes.items()}
    return list(tbl.scan()), tbl._pk_map, indexes


@settings(max_examples=120, deadline=None)
@given(keyed_ops, st.booleans(), st.booleans())
def test_keyed_dml_is_only_an_access_path(operations, indexed, mvcc):
    keyed, scanned = _keyed_db(indexed, mvcc), _keyed_db(indexed, mvcc)
    keyed_snaps, scanned_snaps = [], []
    for op in operations:
        assert (_outcome(keyed, op, True, keyed_snaps)
                == _outcome(scanned, op, False, scanned_snaps)), op
    assert _state(keyed) == _state(scanned)
    image = keyed.wal.snapshot()
    assert image == scanned.wal.snapshot()
    # Recovery sees only committed work — and indexes it the same way a
    # database that never had the keyed calls would.
    recovered = Database.recover(image, mvcc=mvcc)
    twin = Database.recover(scanned.wal.snapshot(), mvcc=mvcc)
    assert _state(recovered) == _state(twin)
    if keyed._active_txn is None:
        assert recovered.select("t") == keyed.select("t")
        for col in COLUMNS:
            for row in keyed.select("t"):
                assert (recovered.find_eq("t", col, row[col])
                        == keyed.find_eq("t", col, row[col]))
