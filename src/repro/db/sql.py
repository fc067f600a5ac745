"""The one SQL statement the engine still answers: a keyed SELECT.

::

    SELECT * FROM t [WHERE col = literal]
    SELECT col[, col...] FROM t [WHERE col = literal]

Keywords are case-insensitive; a literal is an integer, a real, a
'string' (with '' escaping) or NULL.  The WHERE clause goes through
:meth:`Database.find_eq` (primary key, hash index, else a positional
scan), and ``col = NULL`` matches nothing.  Every other statement form,
an unknown table and an unknown column raise :class:`SqlError`.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List

from repro.db.engine import Database
from repro.errors import SqlError

__all__ = ["execute_sql"]

_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_SELECT = re.compile(
    rf"\s*SELECT\s+(?P<columns>\*|{_NAME}(?:\s*,\s*{_NAME})*)"
    rf"\s+FROM\s+(?P<table>{_NAME})"
    rf"(?:\s+WHERE\s+(?P<key>{_NAME})\s*=\s*"
    r"(?P<literal>'(?:[^']|'')*'|\d+(?:\.\d+)?|NULL))?\s*",
    re.IGNORECASE)


def _literal(text: str) -> Any:
    if text[0] == "'":
        return text[1:-1].replace("''", "'")
    if text.upper() == "NULL":
        return None
    return float(text) if "." in text else int(text)


def execute_sql(db: Database, sql: str) -> List[Dict[str, Any]]:
    """Run one keyed SELECT against *db*; returns its rows as dicts."""
    m = _SELECT.fullmatch(sql)
    if m is None:
        raise SqlError(f"not a keyed SELECT: {sql!r}")
    table = db.tables.get(m["table"])
    if table is None:
        raise SqlError(f"no such table {m['table']!r}")
    names = table.schema.names()
    key = m["key"]
    if key is not None and key not in names:
        raise SqlError(f"no such column {key!r}")
    columns = (None if m["columns"] == "*"
               else [c.strip() for c in m["columns"].split(",")])
    unknown = [c for c in columns or () if c not in names]
    if unknown:
        raise SqlError(f"unknown columns {unknown}")
    if key is None:
        rows = db.select(m["table"])
    else:
        value = _literal(m["literal"])
        rows = [] if value is None else db.find_eq(m["table"], key, value)
    if columns is not None:
        rows = [{c: row[c] for c in columns} for row in rows]
    return rows
