"""Unit tests for the database engine: DML, transactions, recovery."""

import pytest

from repro.db import engine
from repro.db.engine import Database
from repro.db.table import Column
from repro.errors import DatabaseError, RecordNotFound, TransactionError


def fresh_db():
    db = Database()
    db.create_table("users", [
        Column("id", "INT", primary_key=True),
        Column("name", "TEXT", nullable=False),
        Column("score", "REAL"),
    ])
    return db


def test_insert_select():
    db = fresh_db()
    db.insert("users", [1, "ada", 9.5])
    db.insert("users", [2, "bob", None])
    rows = db.select("users")
    assert len(rows) == 2
    assert rows[0] == {"id": 1, "name": "ada", "score": 9.5}


def test_select_with_predicate_and_projection():
    db = fresh_db()
    for i in range(5):
        db.insert("users", [i, f"u{i}", float(i)])
    rows = db.select("users", predicate=lambda r: r["score"] >= 3,
                     columns=["name"])
    assert rows == [{"name": "u3"}, {"name": "u4"}]


def test_update_where():
    db = fresh_db()
    db.insert("users", [1, "ada", 1.0])
    db.insert("users", [2, "bob", 2.0])
    n = db.update_where("users", {"score": 0.0},
                        predicate=lambda r: r["name"] == "bob")
    assert n == 1
    assert db.get_by_pk("users", 2)["score"] == 0.0
    assert db.get_by_pk("users", 1)["score"] == 1.0


def test_delete_where():
    db = fresh_db()
    for i in range(4):
        db.insert("users", [i, f"u{i}", None])
    assert db.delete_where("users", lambda r: r["id"] % 2 == 0) == 2
    assert db.count("users") == 2


def test_get_by_pk_missing():
    db = fresh_db()
    with pytest.raises(RecordNotFound):
        db.get_by_pk("users", 42)


def test_missing_table_errors():
    db = Database()
    with pytest.raises(DatabaseError, match="no such table"):
        db.insert("nope", [1])
    with pytest.raises(DatabaseError):
        db.create_table("t", [Column("a", "INT")]) or db.create_table(
            "t", [Column("a", "INT")])


def test_drop_table():
    db = fresh_db()
    db.drop_table("users")
    with pytest.raises(DatabaseError):
        db.select("users")


# ------------------------------------------------------------ transactions

def test_rollback_undoes_insert_update_delete():
    db = fresh_db()
    db.insert("users", [1, "ada", 1.0])
    db.begin()
    db.insert("users", [2, "bob", 2.0])
    db.update_where("users", {"score": 99.0}, lambda r: r["id"] == 1)
    db.delete_where("users", lambda r: r["id"] == 1)
    db.rollback()
    rows = db.select("users")
    assert rows == [{"id": 1, "name": "ada", "score": 1.0}]


def test_transaction_context_manager():
    db = fresh_db()
    with pytest.raises(RuntimeError):
        with db.transaction():
            db.insert("users", [1, "ada", None])
            raise RuntimeError("abort!")
    assert db.count("users") == 0
    with db.transaction():
        db.insert("users", [1, "ada", None])
    assert db.count("users") == 1


def test_nested_transaction_rejected():
    db = fresh_db()
    db.begin()
    with pytest.raises(TransactionError):
        db.begin()
    db.commit()
    with pytest.raises(TransactionError):
        db.commit()
    with pytest.raises(TransactionError):
        db.rollback()


def test_transaction_joins_the_open_unit_and_commits_one_frame():
    db = fresh_db()
    frames = []
    db.wal.taps.append(frames.append)
    with db.transaction():
        db.insert("users", [1, "ada", None])
        with db.transaction():                      # joins, does not nest
            db.insert("users", [2, "bob", None])
            db.update_eq("users", "id", 1, {"score": 2.0})
        assert frames == [] and db._active_txn is not None
    # One unit, one frame, the statements in order.
    assert [[dml[0] for dml in f[2]] for f in frames] \
        == [["insert", "insert", "update"]]
    # A failure inside a joined block is the outer unit's failure.
    with pytest.raises(RuntimeError):
        with db.transaction():
            db.insert("users", [3, "cy", None])
            with db.transaction():
                db.insert("users", [4, "di", None])
                raise RuntimeError("inner")
    assert db.count("users") == 2 and len(frames) == 1
    # begin() stays strict: it never joins.
    with db.transaction():
        with pytest.raises(TransactionError):
            db.begin()


def test_empty_and_rolled_back_transactions_write_nothing():
    db = fresh_db()
    size = db.wal.size()
    with db.transaction():
        pass
    db.begin()
    db.insert("users", [1, "ada", None])
    db.rollback()
    with pytest.raises(DatabaseError):
        db.insert("users", [None, "nobody", None])  # autocommit that fails
    assert db.wal.size() == size
    assert Database.recover(db.wal.snapshot()).count("users") == 0


def test_upsert_updates_in_place_else_inserts():
    db = fresh_db()
    db.create_index("users", "name", "hash")
    frames = []
    db.wal.taps.append(frames.append)
    first = db.upsert("users", [1, "ada", 1.0])
    db.insert("users", [2, "bob", None])
    assert db.upsert("users", [1, "eve", None]) == first    # same rowid
    assert [dml[0] for f in frames for dml in f[2]] \
        == ["insert", "insert", "update"]
    # In place: scan order is unchanged, the index follows the new value.
    assert [r["id"] for r in db.select("users")] == [1, 2]
    assert db.find_eq("users", "name", "ada") == []
    assert db.find_eq("users", "name", "eve")[0]["score"] is None
    # Undone with the unit it ran in; replayed by recovery.
    with pytest.raises(RuntimeError):
        with db.transaction():
            db.upsert("users", [1, "zed", 0.0])
            db.upsert("users", [3, "new", 0.0])
            raise RuntimeError("abort!")
    assert db.get_by_pk("users", 1)["name"] == "eve" and db.count("users") == 2
    recovered = Database.recover(db.wal.snapshot())
    assert recovered.select("users") == db.select("users")
    assert recovered.find_eq("users", "name", "eve") \
        == db.find_eq("users", "name", "eve")
    # The row is validated like any other write.
    with pytest.raises(DatabaseError, match="row has 2 values"):
        db.upsert("users", [1, "short"])
    with pytest.raises(DatabaseError, match="NOT NULL"):
        db.upsert("users", [1, None, 0.0])
    keyless = Database()
    keyless.create_table("log", [Column("line", "TEXT")])
    with pytest.raises(DatabaseError, match="no primary key"):
        keyless.upsert("log", ["x"])


def test_rollback_restores_pk_slot():
    db = fresh_db()
    db.begin()
    db.insert("users", [1, "ada", None])
    db.rollback()
    db.insert("users", [1, "someone-else", None])  # pk slot is free again
    assert db.get_by_pk("users", 1)["name"] == "someone-else"


# ------------------------------------------------------------ indexes

def test_find_eq_uses_index_and_stays_consistent():
    db = fresh_db()
    db.create_index("users", "name", "hash")
    db.insert("users", [1, "ada", None])
    db.insert("users", [2, "ada", None])
    db.insert("users", [3, "bob", None])
    assert {r["id"] for r in db.find_eq("users", "name", "ada")} == {1, 2}
    db.update_where("users", {"name": "carol"}, lambda r: r["id"] == 2)
    assert {r["id"] for r in db.find_eq("users", "name", "ada")} == {1}
    assert {r["id"] for r in db.find_eq("users", "name", "carol")} == {2}
    db.delete_where("users", lambda r: r["id"] == 1)
    assert db.find_eq("users", "name", "ada") == []


def test_index_backfill_on_create():
    db = fresh_db()
    db.insert("users", [1, "ada", None])
    db.create_index("users", "name")
    assert db.find_eq("users", "name", "ada")[0]["id"] == 1


def test_duplicate_index_rejected():
    db = fresh_db()
    db.create_index("users", "name")
    with pytest.raises(DatabaseError):
        db.create_index("users", "name")
    with pytest.raises(DatabaseError):
        db.create_index("users", "nope")
    # Hash is the one kind there is; any other is refused before the log.
    log = db.wal.snapshot()
    with pytest.raises(DatabaseError, match="unknown index kind"):
        db.create_index("users", "score", "sorted")
    assert db.wal.snapshot() == log and ("users", "score") not in db._indexes


# ------------------------------------------------------------ keyed access

def _counted(db, call):
    """(result, rows_scanned, index_rows) of one engine call."""
    db.stats["rows_scanned"] = db.stats["index_rows"] = 0
    return call(), db.stats["rows_scanned"], db.stats["index_rows"]


def people_db(index=None):
    db = fresh_db()
    if index is not None:
        db.create_index("users", "name", index)
    for i, name in enumerate(["ada", "bob", "ada", "cy", "ada"], start=1):
        db.insert("users", [i * 10, name, float(i)])
    return db


def test_resolver_primary_key_rung():
    db = people_db()
    rows, scanned, keyed = _counted(
        db, lambda: db.find_eq("users", "id", 30))
    assert [r["name"] for r in rows] == ["ada"] and (scanned, keyed) == (0, 1)
    assert _counted(db, lambda: db.update_eq(
        "users", "id", 30, {"score": 0.5})) == (1, 0, 1)
    assert _counted(db, lambda: db.delete_eq("users", "id", 20)) == (1, 0, 1)
    assert _counted(db, lambda: db.delete_eq("users", "id", 21)) == (0, 0, 0)
    assert [(r["id"], r["score"]) for r in db.select("users")] == [
        (10, 1.0), (30, 0.5), (40, 4.0), (50, 5.0)]


@pytest.mark.parametrize("index", ["hash"])
def test_resolver_secondary_index_rungs(index):
    db = people_db(index)
    rows, scanned, keyed = _counted(
        db, lambda: db.find_eq("users", "name", "ada"))
    assert [r["id"] for r in rows] == [10, 30, 50]      # rowid order
    assert (scanned, keyed) == (0, 3)
    assert _counted(db, lambda: db.update_eq(
        "users", "name", "ada", {"name": "eve"})) == (3, 0, 3)
    assert db.find_eq("users", "name", "ada") == []
    assert _counted(db, lambda: db.delete_eq(
        "users", "name", "eve")) == (3, 0, 3)
    assert [r["id"] for r in db.select("users")] == [20, 40]
    assert len(db._indexes[("users", "name")]) == 2


def test_resolver_scan_rung_counts_every_heap_row():
    db = people_db()
    rows, scanned, keyed = _counted(
        db, lambda: db.find_eq("users", "name", "ada"))
    assert [r["id"] for r in rows] == [10, 30, 50]
    assert (scanned, keyed) == (5, 0)
    # DML fallback scans are on the same meter as reads.
    assert _counted(db, lambda: db.update_eq(
        "users", "name", "cy", {"score": None})) == (1, 5, 0)
    assert _counted(db, lambda: db.delete_eq(
        "users", "name", "ada")) == (3, 5, 0)
    assert _counted(db, lambda: db.delete_where(
        "users", lambda r: r["score"] is None)) == (1, 2, 0)
    assert _counted(db, lambda: db.update_where(
        "users", {"score": 1.0})) == (1, 1, 0)


def test_resolver_falls_back_on_unhashable_or_uncomparable_value():
    db = people_db("hash")
    # A list cannot be hashed (PK map, hash index): both rungs give way
    # to the positional scan, which simply finds nothing equal.
    assert _counted(db, lambda: db.find_eq("users", "id", [10])) == ([], 5, 0)
    assert _counted(db, lambda: db.delete_eq(
        "users", "name", ["ada"])) == (0, 5, 0)
    blobs = Database()
    blobs.create_table("b", [Column("k", "BLOB", primary_key=True)])
    blobs.insert("b", [b"\x01"])
    assert blobs.delete_eq("b", "k", bytearray(b"\x01")) == 1
    with pytest.raises(DatabaseError, match="no such column"):
        db.delete_eq("users", "nope", 1)
    with pytest.raises(DatabaseError, match="no such column"):
        db.update_eq("users", "id", 10, {"nope": 1})


def test_keyed_miss_appends_no_dml_record():
    keyed, scanned = people_db(), people_db()
    before = keyed.wal.snapshot()
    with keyed.transaction():
        assert keyed.delete_eq("users", "id", 99) == 0
        assert keyed.update_eq("users", "id", 99, {"score": 0.0}) == 0
    with scanned.transaction():
        scanned.delete_where("users", lambda r: r["id"] == 99)
        scanned.update_where("users", {"score": 0.0},
                             lambda r: r["id"] == 99)
    # A miss appends nothing: a transaction with no DML has no frame.
    assert keyed.wal.snapshot() == before
    assert keyed.delete_eq("users", "name", "zed") == 0
    scanned.delete_where("users", lambda r: r["name"] == "zed")
    assert keyed.wal.snapshot() == scanned.wal.snapshot() == before
    # Transaction ids stay in step with the predicate form all the same.
    assert keyed.begin() == scanned.begin()


def test_keyed_dml_writes_the_scan_forms_wal_bytes():
    keyed, scanned = people_db("hash"), people_db("hash")
    keyed.update_eq("users", "name", "ada", {"score": 7.0})
    scanned.update_where("users", {"score": 7.0},
                         lambda r: r["name"] == "ada")
    keyed.delete_eq("users", "name", "ada")
    scanned.delete_where("users", lambda r: r["name"] == "ada")
    keyed.delete_eq("users", "id", 40)
    scanned.delete_where("users", lambda r: r["id"] == 40)
    assert keyed.wal.snapshot() == scanned.wal.snapshot()
    assert keyed.select("users") == scanned.select("users")


def test_keyed_delete_rolls_back_and_keeps_scan_order():
    db = people_db("hash")
    before = db.select("users")
    db.begin()
    db.delete_eq("users", "name", "ada")
    db.update_eq("users", "id", 20, {"name": "ada"})
    db.rollback()
    assert db.select("users") == before
    assert [r["id"] for r in db.find_eq("users", "name", "ada")] == [10, 30, 50]


# ------------------------------------------------------------ recovery

def test_recover_committed_data():
    db = fresh_db()
    db.insert("users", [1, "ada", 1.5])
    db.insert("users", [2, "bob", None])
    db.delete_where("users", lambda r: r["id"] == 2)
    recovered = Database.recover(db.wal.snapshot())
    assert recovered.select("users") == [{"id": 1, "name": "ada", "score": 1.5}]


def test_recover_discards_uncommitted():
    db = fresh_db()
    db.insert("users", [1, "ada", None])
    db.begin()
    db.insert("users", [2, "bob", None])
    # Crash before commit: snapshot now.
    image = db.wal.snapshot()
    recovered = Database.recover(image)
    assert [r["id"] for r in recovered.select("users")] == [1]


def test_recover_survives_torn_tail():
    db = fresh_db()
    db.insert("users", [1, "ada", None])
    good = db.wal.snapshot()
    db.insert("users", [2, "bob", None])
    torn = db.wal.snapshot()[: len(good) + 7]  # rip the last txn mid-frame
    recovered = Database.recover(torn)
    assert [r["id"] for r in recovered.select("users")] == [1]


def test_recover_replays_updates():
    db = fresh_db()
    db.insert("users", [1, "ada", 1.0])
    db.update_where("users", {"score": 7.0}, lambda r: r["id"] == 1)
    recovered = Database.recover(db.wal.snapshot())
    assert recovered.get_by_pk("users", 1)["score"] == 7.0


def test_recover_preserves_indexes():
    db = fresh_db()
    db.create_index("users", "name")
    db.insert("users", [1, "ada", None])
    recovered = Database.recover(db.wal.snapshot())
    assert recovered.find_eq("users", "name", "ada")[0]["id"] == 1
    assert ("users", "name") in recovered._indexes


def test_checkpoint_compacts_and_preserves_state():
    db = fresh_db()
    for i in range(20):
        db.insert("users", [i, f"u{i}", None])
    db.delete_where("users", lambda r: r["id"] >= 10)
    size_before = db.wal.size()
    db.checkpoint()
    assert db.wal.size() < size_before
    recovered = Database.recover(db.wal.snapshot())
    assert recovered.count("users") == 10


def test_commit_compacts_once_the_dead_outweigh_the_live(monkeypatch):
    """Online, silent and crash-safe: no tap fires, the observer sees one
    net shrink, no transaction id is drawn, and no crash cuts the image."""
    monkeypatch.setattr(engine, "_COMPACT_FLOOR", 4096)
    db = Database()
    db.create_table("files", [Column("name", "TEXT", primary_key=True),
                              Column("data", "BLOB")])
    db.insert("files", ["keep", b"k" * 700])
    shipped, sizes = [], []
    db.wal.taps.append(shipped.append)
    db.wal.observer = lambda delta, total: sizes.append((delta, total))
    version = 0
    while not db.stats["compactions"]:
        version += 1
        db.upsert("files", ["hot", bytes([version]) * 1000])
        assert version < 10
    # Two dead kilobytes a version after the first: the second update
    # passes the floor and the live image both.
    assert version == 3
    # Every commit was shipped and observed as an append; the compaction
    # was shipped to nobody and observed as one negative step.
    assert len(shipped) == version
    assert [d > 0 for d, _ in sizes] == [True] * version + [False]
    assert sizes[-1][1] == db.wal.size() < sizes[-2][1] - 4096
    # The image carries the committing transaction's id; the next
    # transaction gets the next one.
    ids = [r[1] for r in db.wal.records() if r[0] == "txn"]
    assert set(ids) == {version + 1} and db.begin() == version + 2
    db.rollback()
    # The heap rows' own BLOB objects are what the image logs.
    held = {id(row[1]) for _, row in db.tables["files"].scan()}
    assert held <= {id(seg) for seg in db.wal._segments}
    # No crash cuts below the image; the tail tears as ever.
    image = db.wal.size()
    db.upsert("files", ["hot", b"tail" * 100])
    db.wal.truncate(image // 2)
    assert db.wal.size() == image
    recovered = Database.recover(db.wal.snapshot())
    assert recovered.get_by_pk("files", "keep")["data"] == b"k" * 700
    assert recovered.get_by_pk("files", "hot")["data"] == bytes([version]) * 1000


def test_a_log_with_nothing_dead_never_compacts(monkeypatch):
    monkeypatch.setattr(engine, "_COMPACT_FLOOR", 4096)
    db = Database()
    db.create_table("files", [Column("name", "TEXT", primary_key=True),
                              Column("data", "BLOB")])
    for i in range(50):      # fresh names: 50 KB logged, nothing superseded
        db.upsert("files", [f"f{i}", bytes([i]) * 1000])
    with db.transaction():   # dead, but a sliver of what is live
        db.delete_eq("files", "name", "f0")
    assert db.stats["compactions"] == 0
    db.begin()
    db.delete_where("files")
    db.rollback()            # killed nothing
    assert db.stats["compactions"] == 0


def test_compaction_re_encodes_only_the_frames_whose_rows_changed():
    db = fresh_db()
    for i in range(100):
        db.insert("users", [i, f"u{i}", None])
    db.checkpoint()
    before = list(db.wal._segments)
    db.update_eq("users", "id", 99, {"score": 1.0})
    db.insert("users", [100, "u100", None])
    db.checkpoint()
    after = db.wal._segments
    # 101 rows, 32 to a frame: the first three frames are the very
    # objects they were; the last holds the changed and the new row.
    assert len(after) == len(before) == 1 + 4
    assert [a is b for a, b in zip(after, before)] == [False] + [True] * 3 + [False]
    assert after[0] == before[0]   # the schema, encoded again
    recovered = Database.recover(db.wal.snapshot())
    assert recovered.select("users") == db.select("users")


def test_checkpoint_inside_txn_rejected():
    db = fresh_db()
    db.begin()
    with pytest.raises(TransactionError):
        db.checkpoint()


def test_writes_continue_after_recovery():
    db = fresh_db()
    db.insert("users", [1, "ada", None])
    recovered = Database.recover(db.wal.snapshot())
    recovered.insert("users", [2, "bob", None])
    again = Database.recover(recovered.wal.snapshot())
    assert again.count("users") == 2


# ------------------------------------------------------------ DDL in txn

def test_ddl_inside_transaction_rejected():
    """create/drop/index are not undoable — they must refuse in a txn."""
    db = fresh_db()
    db.insert("users", [1, "ada", None])
    db.begin()
    with pytest.raises(TransactionError, match="create_table"):
        db.create_table("t2", [Column("a", "INT")])
    with pytest.raises(TransactionError, match="drop_table"):
        db.drop_table("users")
    with pytest.raises(TransactionError, match="create_index"):
        db.create_index("users", "name")
    # The refused DDL left nothing behind; the txn is still usable.
    db.insert("users", [2, "bob", None])
    db.rollback()
    assert db.count("users") == 1
    assert "t2" not in db.tables
    assert ("users", "name") not in db._indexes


def test_drop_table_crash_recovery_roundtrip():
    """drop + recreate + reindex replays faithfully through the WAL."""
    db = fresh_db()
    db.create_index("users", "name")
    db.insert("users", [1, "ada", None])
    db.drop_table("users")
    db.create_table("users", [
        Column("id", "INT", primary_key=True),
        Column("name", "TEXT", nullable=False),
    ])
    db.create_index("users", "name", "hash")
    db.insert("users", [7, "eve"])
    recovered = Database.recover(db.wal.snapshot())
    assert recovered.select("users") == [{"id": 7, "name": "eve"}]
    assert recovered.find_eq("users", "name", "eve")[0]["id"] == 7
    assert recovered.find_eq("users", "name", "ada") == []
    # The dropped incarnation's index did not leak into the new one.
    assert ("users", "name") in recovered._indexes
