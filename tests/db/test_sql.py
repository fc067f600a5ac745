"""Unit tests for the keyed SELECT, the one SQL statement left."""

import pytest

from repro.db import Database, execute_sql
from repro.db.table import Column
from repro.errors import SqlError


def db_with_users():
    db = Database()
    db.create_table("users", [Column("id", "INT", primary_key=True),
                              Column("name", "TEXT", nullable=False),
                              Column("score", "REAL"), Column("data", "BLOB")])
    db.insert("users", [1, "ada", 9.5, b"\x00\xff"])
    db.insert("users", [2, "bob", None, None])
    db.insert("users", [3, "carol", None, None])
    return db


def _counters(db):
    return db.stats["rows_scanned"], db.stats["index_rows"]


def _reset(db):
    db.stats["rows_scanned"] = db.stats["index_rows"] = 0


# ---------------------------------------------------------------- SELECT

def test_create_insert_select_roundtrip():
    db = db_with_users()
    rows = execute_sql(db, "SELECT * FROM users")
    assert len(rows) == 3
    assert rows[0]["data"] == b"\x00\xff"
    assert rows[1]["score"] is None


def test_projection_keeps_the_listed_columns_in_order():
    db = db_with_users()
    assert execute_sql(db, "select score, id from users where id = 2") \
        == [{"score": None, "id": 2}]
    assert execute_sql(db, "SELECT name FROM users WHERE name = 'it''s'") \
        == []
    assert execute_sql(db, "SELECT id, score FROM users") == [
        {"id": 1, "score": 9.5}, {"id": 2, "score": None},
        {"id": 3, "score": None}]


def test_the_benchmark_point_select_is_accepted():
    db = Database()
    db.create_table("invocations", [
        Column("id", "INT", primary_key=True),
        Column("service", "TEXT", nullable=False),
        Column("total", "REAL", nullable=False)])
    db.create_index("invocations", "service", "hash")
    for i in range(60):
        db.insert("invocations", [i, f"Hot{i % 24:02d}Service", 6.0 + i])
    _reset(db)
    for i in range(0, 60, 50):
        assert execute_sql(
            db, f"SELECT total FROM invocations WHERE id = {i}") \
            == [{"total": 6.0 + i}]
    assert _counters(db) == (0, 2)


# ---------------------------------------------------------------- access paths

def test_indexed_equality_select():
    db = db_with_users()
    db.create_index("users", "name")
    rows = execute_sql(db, "SELECT * FROM users WHERE name = 'bob'")
    assert [r["id"] for r in rows] == [2]


def test_planner_routes_equality_through_index_counters():
    db = db_with_users()
    db.create_index("users", "name")
    _reset(db)
    rows = execute_sql(db, "SELECT * FROM users WHERE name = 'carol'")
    assert [r["id"] for r in rows] == [3]
    # The predicate was answered off the index: no heap scan at all.
    assert _counters(db) == (0, 1)


def test_planner_scans_heap_without_index():
    db = db_with_users()
    _reset(db)
    rows = execute_sql(db, "SELECT id FROM users WHERE name = 'ada'")
    assert [r["id"] for r in rows] == [1]
    # Same query, no index: every heap row was visited.
    assert _counters(db) == (3, 0)


def test_planner_routes_primary_key_point_statements():
    db = db_with_users()
    _reset(db)
    assert [r["name"] for r in
            execute_sql(db, "SELECT name FROM users WHERE id = 2")] == ["bob"]
    assert execute_sql(db, "SELECT * FROM users WHERE id = 77") == []
    # Two point reads on the key: not one heap row visited.
    assert _counters(db) == (0, 1)


def test_keyed_statements_agree_with_scan_on_mistyped_literal():
    db = db_with_users()
    # A literal of the wrong type equals nothing, on the key or off it.
    for sql, column, value in [
            ("SELECT * FROM users WHERE id = 'x'", "id", "x"),
            ("SELECT * FROM users WHERE name = 7", "name", 7),
            ("SELECT * FROM users WHERE id = 1.0", "id", 1.0)]:
        assert execute_sql(db, sql) \
            == db.select("users", lambda r: r[column] == value)
    assert [r["id"] for r in
            execute_sql(db, "SELECT * FROM users WHERE id = 1.0")] == [1]


@pytest.mark.parametrize("index", [None, "HASH"])
def test_equals_null_matches_nothing_on_every_path(index):
    # SQL three-valued logic: ``c = NULL`` is never true, whether the
    # column is the key, hash-indexed or scanned.
    db = db_with_users()          # bob and carol have score NULL
    if index is not None:
        db.create_index("users", "score", index.lower())
    _reset(db)
    assert execute_sql(db, "SELECT * FROM users WHERE score = NULL") == []
    assert execute_sql(db, "SELECT * FROM users WHERE score = null") == []
    assert execute_sql(db, "SELECT id FROM users WHERE id = NULL") == []
    assert _counters(db) == (0, 0)


# ---------------------------------------------------------------- errors

REFUSED = {
    "insert": "INSERT INTO users VALUES (4, 'dan', 1.0, NULL)",
    "update": "UPDATE users SET score = 1.0 WHERE id = 2",
    "delete": "DELETE FROM users WHERE id = 1",
    "delete-all": "DELETE FROM users",
    "create-table": "CREATE TABLE t (id INT PRIMARY KEY)",
    "create-index": "CREATE INDEX ON users (name) USING HASH",
    "drop-table": "DROP TABLE users",
    "begin": "BEGIN",
    "order-by": "SELECT * FROM users WHERE id = 1 ORDER BY id",
    "order-by-limit": "SELECT name FROM users ORDER BY name DESC LIMIT 2",
    "limit": "SELECT * FROM users LIMIT 1",
    "group-by": "SELECT name, COUNT(*) FROM users GROUP BY name",
    "aggregate": "SELECT MAX(id) FROM users",
    "less-than": "SELECT * FROM users WHERE score < 3",
    "at-least": "SELECT * FROM users WHERE id >= 2",
    "not-equal": "SELECT * FROM users WHERE name <> 'ada'",
    "and": "SELECT * FROM users WHERE id = 1 AND name = 'ada'",
    "or": "SELECT * FROM users WHERE id = 1 OR id = 2",
    "is-null": "SELECT * FROM users WHERE score IS NULL",
    "like": "SELECT * FROM users WHERE name LIKE 'a%'",
    "semicolon": "SELECT * FROM users WHERE id = 1;",
    "trailing-after-where": "SELECT * FROM users WHERE id = 1 junk",
    "trailing-after-table": "SELECT * FROM users junk",
}


@pytest.mark.parametrize("sql", list(REFUSED.values()), ids=list(REFUSED))
def test_forms_no_longer_accepted_raise(sql):
    # Refused whole: no prefix of the statement is run or answered.
    db = db_with_users()
    before = (db.select("users"), db.wal.snapshot(), set(db.tables),
              set(db._indexes))
    with pytest.raises(SqlError, match="not a keyed SELECT"):
        execute_sql(db, sql)
    assert (db.select("users"), db.wal.snapshot(), set(db.tables),
            set(db._indexes)) == before


def test_parse_errors():
    db = db_with_users()
    for bad in [
        "SELEC * FROM users",
        "SELECT FROM users",
        "SELECT * FROM users WHERE",
        "SELECT * FROM users WHERE id =",
        "SELECT * FROM users WHERE id = @",
        "SELECT * FROM users WHERE id = 'open",
        "SELECT a,, b FROM users",
        "",
    ]:
        with pytest.raises(SqlError):
            execute_sql(db, bad)


def test_unknown_table():
    db = db_with_users()
    with pytest.raises(SqlError, match="no such table"):
        execute_sql(db, "SELECT * FROM nope")


def test_drop_table_sql():
    db = db_with_users()
    db.drop_table("users")
    with pytest.raises(SqlError, match="no such table"):
        execute_sql(db, "SELECT * FROM users WHERE id = 1")


def test_unknown_column_in_where():
    db = db_with_users()
    with pytest.raises(SqlError, match="no such column"):
        execute_sql(db, "SELECT * FROM users WHERE nope = 1")
    # Even on an empty table, and with a NULL literal.
    db.delete_where("users")
    with pytest.raises(SqlError, match="no such column"):
        execute_sql(db, "SELECT * FROM users WHERE nope = NULL")


def test_unknown_projection_column():
    db = db_with_users()
    with pytest.raises(SqlError, match="unknown columns"):
        execute_sql(db, "SELECT nope FROM users")
    with pytest.raises(SqlError, match="unknown columns"):
        execute_sql(db, "SELECT id, nope FROM users WHERE id = 77")
