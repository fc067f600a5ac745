"""Unit tests for columns, schemas and heap tables."""

import pytest

from repro.db.table import Column, HeapTable, Schema
from repro.errors import DatabaseError, RecordNotFound


def people_table():
    return HeapTable("people", Schema([
        Column("id", "INT", primary_key=True),
        Column("name", "TEXT", nullable=False),
        Column("age", "INT"),
    ]))


# ---------------------------------------------------------------- Column

def test_column_type_validation():
    col = Column("n", "INT")
    assert col.validate(5) == 5
    with pytest.raises(DatabaseError):
        col.validate("five")
    with pytest.raises(DatabaseError):
        col.validate(True)  # bools are rejected despite being ints


def test_column_real_coerces_int():
    assert Column("x", "REAL").validate(3) == 3.0
    assert isinstance(Column("x", "REAL").validate(3), float)


def test_column_blob_coerces_bytearray():
    v = Column("b", "BLOB").validate(bytearray(b"abc"))
    assert v == b"abc"
    assert isinstance(v, bytes)


def test_column_nullability():
    assert Column("x", "TEXT").validate(None) is None
    with pytest.raises(DatabaseError):
        Column("x", "TEXT", nullable=False).validate(None)


def test_primary_key_implies_not_null():
    col = Column("id", "INT", primary_key=True)
    with pytest.raises(DatabaseError):
        col.validate(None)


def test_bad_column_definitions():
    with pytest.raises(DatabaseError):
        Column("x", "VARCHAR")
    with pytest.raises(DatabaseError):
        Column("bad name", "INT")


# ---------------------------------------------------------------- Schema

def test_schema_rejects_duplicates_and_multi_pk():
    with pytest.raises(DatabaseError):
        Schema([Column("a", "INT"), Column("a", "TEXT")])
    with pytest.raises(DatabaseError):
        Schema([Column("a", "INT", primary_key=True),
                Column("b", "INT", primary_key=True)])
    with pytest.raises(DatabaseError):
        Schema([])


def test_schema_index_of():
    s = Schema([Column("a", "INT"), Column("b", "TEXT")])
    assert s.index_of("b") == 1
    with pytest.raises(DatabaseError):
        s.index_of("c")


# ---------------------------------------------------------------- HeapTable

def test_insert_get_roundtrip():
    t = people_table()
    rid = t.insert([1, "ada", 36])
    assert t.get(rid) == (1, "ada", 36)
    assert len(t) == 1


def test_rowids_monotone():
    t = people_table()
    r1 = t.insert([1, "a", None])
    t.delete(r1)
    r2 = t.insert([2, "b", None])
    assert r2 > r1


def test_pk_uniqueness():
    t = people_table()
    t.insert([1, "ada", None])
    with pytest.raises(DatabaseError, match="duplicate primary key"):
        t.insert([1, "bob", None])


def test_pk_lookup():
    t = people_table()
    rid = t.insert([7, "g", None])
    assert t.lookup_pk(7) == rid
    assert t.lookup_pk(8) is None
    t.delete(rid)
    assert t.lookup_pk(7) is None


def test_update_changes_pk_map():
    t = people_table()
    rid = t.insert([1, "ada", None])
    t.insert([2, "bob", None])
    with pytest.raises(DatabaseError, match="duplicate"):
        t.update(rid, [2, "ada", None])
    t.update(rid, [3, "ada", None])
    assert t.lookup_pk(3) == rid
    assert t.lookup_pk(1) is None


def test_delete_missing_row():
    t = people_table()
    with pytest.raises(RecordNotFound):
        t.delete(99)
    with pytest.raises(RecordNotFound):
        t.get(99)
    with pytest.raises(RecordNotFound):
        t.update(99, [1, "x", None])


def test_restore_after_delete():
    t = people_table()
    rid = t.insert([1, "ada", 36])
    row = t.delete(rid)
    t.restore(rid, row)
    assert t.get(rid) == (1, "ada", 36)
    assert t.lookup_pk(1) == rid
    with pytest.raises(DatabaseError):
        t.restore(rid, row)  # already present


def test_scan_in_rowid_order():
    t = people_table()
    for i in range(5):
        t.insert([i, f"p{i}", None])
    rowids = [rid for rid, _ in t.scan()]
    assert rowids == sorted(rowids)


def test_scan_stays_in_rowid_order_after_restore():
    # restore() is the one writer that can land a row behind a larger
    # rowid (rollback of a delete); the next scan re-sorts, once.
    t = people_table()
    rids = [t.insert([i, f"p{i}", None]) for i in range(5)]
    first, third = t.delete(rids[0]), t.delete(rids[2])
    t.restore(rids[2], third)
    t.restore(rids[0], first)
    assert [rid for rid, _ in t.scan()] == rids
    t.insert([9, "late", None])
    assert [rid for rid, _ in t.scan()] == rids + [rids[-1] + 1]
    assert t.schema.names() == ("id", "name", "age")


def test_row_arity_enforced():
    t = people_table()
    with pytest.raises(DatabaseError, match="row has"):
        t.insert([1, "ada"])
