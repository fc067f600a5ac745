"""Unit tests for the SQL dialect."""

import pytest

from repro.db import Database, execute_sql
from repro.db.sql import tokenize
from repro.errors import SqlError


def db_with_users():
    db = Database()
    execute_sql(db, "CREATE TABLE users (id INT PRIMARY KEY, "
                    "name TEXT NOT NULL, score REAL, data BLOB)")
    execute_sql(db, "INSERT INTO users VALUES (1, 'ada', 9.5, X'00ff')")
    execute_sql(db, "INSERT INTO users (id, name) VALUES (2, 'bob'), (3, 'carol')")
    return db


# ---------------------------------------------------------------- tokenizer

def test_tokenize_kinds():
    toks = tokenize("SELECT a, 'it''s', 1.5, 42, X'ab' FROM t;")
    kinds = [t.kind for t in toks]
    assert kinds == ["KEYWORD", "NAME", "OP", "STRING", "OP", "REAL", "OP",
                     "INT", "OP", "BLOB", "KEYWORD", "NAME", "OP", "END"]
    assert toks[3].value == "it's"
    assert toks[9].value == b"\xab"


def test_tokenize_bad_char():
    with pytest.raises(SqlError, match="unexpected character"):
        tokenize("SELECT @ FROM t")


# ---------------------------------------------------------------- DDL + insert

def test_create_insert_select_roundtrip():
    db = db_with_users()
    rows = execute_sql(db, "SELECT * FROM users")
    assert len(rows) == 3
    assert rows[0]["data"] == b"\x00\xff"
    assert rows[1]["score"] is None


def test_insert_column_list_fills_nulls():
    db = db_with_users()
    row = execute_sql(db, "SELECT score FROM users WHERE id = 2")
    assert row == [{"score": None}]


def test_insert_arity_mismatch():
    db = db_with_users()
    with pytest.raises(SqlError, match="arity"):
        execute_sql(db, "INSERT INTO users (id, name) VALUES (9)")


def test_insert_unknown_column():
    db = db_with_users()
    with pytest.raises(SqlError, match="unknown columns"):
        execute_sql(db, "INSERT INTO users (id, nope) VALUES (9, 1)")


def test_drop_table_sql():
    db = db_with_users()
    execute_sql(db, "DROP TABLE users")
    with pytest.raises(Exception):
        execute_sql(db, "SELECT * FROM users")


# ---------------------------------------------------------------- WHERE

def test_where_comparisons():
    db = db_with_users()
    assert [r["id"] for r in
            execute_sql(db, "SELECT id FROM users WHERE score >= 9")] == [1]
    assert [r["id"] for r in
            execute_sql(db, "SELECT id FROM users WHERE name <> 'ada'")] == [2, 3]


def test_where_and_or_not_parens():
    db = db_with_users()
    rows = execute_sql(
        db, "SELECT id FROM users WHERE (id = 1 OR id = 3) AND NOT name = 'ada'")
    assert [r["id"] for r in rows] == [3]


def test_where_null_semantics():
    db = db_with_users()
    # score comparisons never match NULL scores.
    assert [r["id"] for r in
            execute_sql(db, "SELECT id FROM users WHERE score < 100")] == [1]
    assert [r["id"] for r in
            execute_sql(db, "SELECT id FROM users WHERE score IS NULL")] == [2, 3]
    assert [r["id"] for r in
            execute_sql(db, "SELECT id FROM users WHERE score IS NOT NULL")] == [1]


def test_where_like():
    db = db_with_users()
    assert [r["name"] for r in
            execute_sql(db, "SELECT name FROM users WHERE name LIKE 'c%'")] == ["carol"]
    assert [r["name"] for r in
            execute_sql(db, "SELECT name FROM users WHERE name LIKE '_ob'")] == ["bob"]


def test_order_by_and_limit():
    db = db_with_users()
    rows = execute_sql(db, "SELECT name FROM users ORDER BY name DESC LIMIT 2")
    assert [r["name"] for r in rows] == ["carol", "bob"]
    rows = execute_sql(db, "SELECT id FROM users ORDER BY score ASC")
    # NULLs sort last ascending.
    assert [r["id"] for r in rows][0] == 1


# ---------------------------------------------------------------- update/delete

def test_update_returns_count():
    db = db_with_users()
    n = execute_sql(db, "UPDATE users SET score = 1.0 WHERE score IS NULL")
    assert n == 2
    assert execute_sql(db, "SELECT id FROM users WHERE score = 1.0") is not None


def test_delete_returns_count():
    db = db_with_users()
    assert execute_sql(db, "DELETE FROM users WHERE id > 1") == 2
    assert len(execute_sql(db, "SELECT * FROM users")) == 1


# ---------------------------------------------------------------- transactions

def test_sql_transaction_rollback():
    db = db_with_users()
    execute_sql(db, "BEGIN")
    execute_sql(db, "DELETE FROM users")
    execute_sql(db, "ROLLBACK")
    assert len(execute_sql(db, "SELECT * FROM users")) == 3
    execute_sql(db, "BEGIN")
    execute_sql(db, "DELETE FROM users WHERE id = 1")
    execute_sql(db, "COMMIT")
    assert len(execute_sql(db, "SELECT * FROM users")) == 2


# ---------------------------------------------------------------- index routing

def test_indexed_equality_select():
    db = db_with_users()
    execute_sql(db, "CREATE INDEX ON users (name) USING HASH")
    rows = execute_sql(db, "SELECT * FROM users WHERE name = 'bob'")
    assert [r["id"] for r in rows] == [2]


def test_sorted_index_creation():
    db = db_with_users()
    execute_sql(db, "CREATE INDEX ON users (score) USING SORTED")
    assert ("users", "score") in db._indexes


def test_planner_routes_equality_through_index_counters():
    db = db_with_users()
    execute_sql(db, "CREATE INDEX ON users (name) USING HASH")
    db.stats["rows_scanned"] = 0
    db.stats["index_rows"] = 0
    rows = execute_sql(db, "SELECT * FROM users WHERE name = 'carol'")
    assert [r["id"] for r in rows] == [3]
    # The predicate was answered off the index: no heap scan at all.
    assert db.stats["rows_scanned"] == 0
    assert db.stats["index_rows"] == 1


def test_planner_routes_range_through_sorted_index():
    db = db_with_users()
    execute_sql(db, "UPDATE users SET score = 2.0 WHERE id = 2")
    execute_sql(db, "UPDATE users SET score = 5.0 WHERE id = 3")
    execute_sql(db, "CREATE INDEX ON users (score) USING SORTED")
    db.stats["rows_scanned"] = 0
    db.stats["index_rows"] = 0
    rows = execute_sql(db, "SELECT id FROM users WHERE score >= 5.0")
    assert sorted(r["id"] for r in rows) == [1, 3]
    assert db.stats["rows_scanned"] == 0
    assert db.stats["index_rows"] == 2
    rows = execute_sql(db, "SELECT id FROM users WHERE score < 3.0")
    assert [r["id"] for r in rows] == [2]
    rows = execute_sql(db, "SELECT id FROM users WHERE score > 9.5")
    assert rows == []
    assert db.stats["rows_scanned"] == 0


def test_planner_scans_heap_without_index():
    db = db_with_users()
    db.stats["rows_scanned"] = 0
    db.stats["index_rows"] = 0
    rows = execute_sql(db, "SELECT id FROM users WHERE name = 'ada'")
    assert [r["id"] for r in rows] == [1]
    # Same query, no index: every heap row was visited.
    assert db.stats["rows_scanned"] == 3
    assert db.stats["index_rows"] == 0


def test_planner_routes_primary_key_point_statements():
    db = db_with_users()
    db.stats["rows_scanned"] = 0
    db.stats["index_rows"] = 0
    assert [r["name"] for r in
            execute_sql(db, "SELECT name FROM users WHERE id = 2")] == ["bob"]
    assert execute_sql(db, "UPDATE users SET score = 1.5 WHERE id = 2") == 1
    assert execute_sql(db, "DELETE FROM users WHERE id = 3") == 1
    assert execute_sql(db, "DELETE FROM users WHERE id = 77") == 0
    # Four point statements on the key: not one heap row visited.
    assert db.stats["rows_scanned"] == 0
    assert db.stats["index_rows"] == 3
    assert execute_sql(db, "SELECT id, score FROM users") == [
        {"id": 1, "score": 9.5}, {"id": 2, "score": 1.5}]


def test_keyed_statements_agree_with_scan_on_mistyped_literal():
    db = db_with_users()
    # A literal of the wrong type equals nothing, on the key or off it.
    assert execute_sql(db, "SELECT * FROM users WHERE id = 'x'") == []
    assert execute_sql(db, "DELETE FROM users WHERE name = 7") == 0
    assert execute_sql(db, "UPDATE users SET score = 0.0 WHERE id = 1.0") == 1
    with pytest.raises(SqlError, match="no such column"):
        execute_sql(db, "DELETE FROM users WHERE nope = 1")


@pytest.mark.parametrize("index", [None, "HASH", "SORTED"])
def test_equals_null_matches_nothing_on_every_path(index):
    # SQL three-valued logic: ``c = NULL`` is never true.  The index
    # route used to hand back the NULL rows for SELECT.
    db = db_with_users()          # bob and carol have score NULL
    if index is not None:
        execute_sql(db, f"CREATE INDEX ON users (score) USING {index}")
    assert execute_sql(db, "SELECT * FROM users WHERE score = NULL") == []
    assert execute_sql(
        db, "UPDATE users SET name = 'hit' WHERE score = NULL") == 0
    assert execute_sql(db, "DELETE FROM users WHERE score = NULL") == 0
    assert [r["name"] for r in execute_sql(db, "SELECT name FROM users")] \
        == ["ada", "bob", "carol"]
    assert len(execute_sql(
        db, "SELECT * FROM users WHERE score IS NULL")) == 2


# ---------------------------------------------------------------- errors

def test_parse_errors():
    db = Database()
    for bad in [
        "SELEC * FROM t",
        "SELECT FROM t",
        "CREATE TABLE t (a NOPE)",
        "INSERT INTO t VALUES 1",
        "SELECT * FROM t WHERE",
        "SELECT * FROM t LIMIT 'x'",
        "",
    ]:
        with pytest.raises(SqlError):
            execute_sql(db, bad)


def test_unknown_column_in_where():
    db = db_with_users()
    with pytest.raises(SqlError, match="no such column"):
        execute_sql(db, "SELECT * FROM users WHERE nope = 1")


def test_unknown_projection_column():
    db = db_with_users()
    with pytest.raises(SqlError, match="unknown columns"):
        execute_sql(db, "SELECT nope FROM users")
