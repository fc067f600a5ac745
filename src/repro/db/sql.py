"""A small SQL dialect over the engine: tokenizer, parser, executor.

Supported statements::

    CREATE TABLE t (id INT PRIMARY KEY, name TEXT NOT NULL, data BLOB)
    DROP TABLE t
    CREATE INDEX ON t (name) USING HASH      -- or USING SORTED
    INSERT INTO t (id, name) VALUES (1, 'a'), (2, 'b')
    SELECT *, or a column list, FROM t [WHERE expr] [ORDER BY col [DESC]] [LIMIT n]
    UPDATE t SET name = 'x' [, ...] [WHERE expr]
    DELETE FROM t [WHERE expr]
    BEGIN / COMMIT / ROLLBACK

WHERE expressions: comparisons (= != <> < <= > >=), AND/OR/NOT,
parentheses, IS [NOT] NULL, LIKE with %/_ wildcards.  Literals: integers,
reals, 'strings' (with '' escaping), X'68656c6c6f' blob literals, NULL.

A top-level ``WHERE col = literal`` on SELECT, UPDATE and DELETE goes
through the engine's keyed access path (primary key, hash index, sorted
index), so point statements skip the full scan; ``col = NULL`` matches
nothing on every path.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.db.engine import Database
from repro.db.index import SortedIndex
from repro.db.table import Column, TYPES
from repro.errors import SqlError

__all__ = ["execute_sql", "tokenize", "Parser"]

# ------------------------------------------------------------------ tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<blob>[xX]'(?:[0-9a-fA-F]{2})*')
  | (?P<string>'(?:[^']|'')*')
  | (?P<number>\d+\.\d+|\.\d+|\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|<>|!=|=|<|>|\(|\)|,|\*|;)
    """,
    re.VERBOSE,
)

#: token kinds: KEYWORD, NAME, STRING, BLOB, INT, REAL, OP, END
_KEYWORDS = {
    "CREATE", "TABLE", "DROP", "INDEX", "ON", "USING", "HASH", "SORTED",
    "INSERT", "INTO", "VALUES", "SELECT", "FROM", "WHERE", "ORDER", "BY",
    "ASC", "DESC", "LIMIT", "UPDATE", "SET", "DELETE", "AND", "OR", "NOT",
    "NULL", "IS", "LIKE", "PRIMARY", "KEY", "BEGIN", "COMMIT", "ROLLBACK",
    "COUNT", "SUM", "AVG", "MIN", "MAX", "GROUP",
}

#: Aggregate function keywords.
_AGGREGATES = {"COUNT", "SUM", "AVG", "MIN", "MAX"}


class Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value: Any, pos: int):
        self.kind = kind
        self.value = value
        self.pos = pos

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"Token({self.kind}, {self.value!r})"


def tokenize(sql: str) -> List[Token]:
    """Split *sql* into tokens; raises :class:`SqlError` on bad input."""
    tokens: List[Token] = []
    pos = 0
    while pos < len(sql):
        m = _TOKEN_RE.match(sql, pos)
        if m is None:
            raise SqlError(f"unexpected character {sql[pos]!r} at offset {pos}")
        kind = m.lastgroup
        text = m.group()
        if kind == "ws":
            pass
        elif kind == "string":
            tokens.append(Token("STRING", text[1:-1].replace("''", "'"), pos))
        elif kind == "blob":
            tokens.append(Token("BLOB", bytes.fromhex(text[2:-1]), pos))
        elif kind == "number":
            if "." in text:
                tokens.append(Token("REAL", float(text), pos))
            else:
                tokens.append(Token("INT", int(text), pos))
        elif kind == "name":
            upper = text.upper()
            if upper in _KEYWORDS:
                tokens.append(Token("KEYWORD", upper, pos))
            else:
                tokens.append(Token("NAME", text, pos))
        else:
            tokens.append(Token("OP", text, pos))
        pos = m.end()
    tokens.append(Token("END", None, pos))
    return tokens


# ------------------------------------------------------------------ expressions

class Expr:
    """Compiled boolean/value expression over a row dict."""

    def __init__(self, fn: Callable[[Dict[str, Any]], Any], repr_: str):
        self.fn = fn
        self.repr = repr_

    def __call__(self, row: Dict[str, Any]) -> Any:
        return self.fn(row)


def _like_to_regex(pattern: str) -> "re.Pattern[str]":
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


_COMPARATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


# ------------------------------------------------------------------ parser

class Parser:
    """Recursive-descent parser producing executable statement objects."""

    def __init__(self, sql: str):
        self.tokens = tokenize(sql)
        self.pos = 0

    # -- token helpers ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, kind: str, value: Any = None) -> Optional[Token]:
        tok = self.peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self.next()
        return None

    def expect(self, kind: str, value: Any = None) -> Token:
        tok = self.accept(kind, value)
        if tok is None:
            got = self.peek()
            want = value if value is not None else kind
            raise SqlError(f"expected {want}, got {got.value!r} at offset {got.pos}")
        return tok

    # -- statements -------------------------------------------------------------

    def parse(self) -> Dict[str, Any]:
        tok = self.peek()
        if tok.kind != "KEYWORD":
            raise SqlError(f"statement must start with a keyword, got {tok.value!r}")
        handler = {
            "CREATE": self._create,
            "DROP": self._drop,
            "INSERT": self._insert,
            "SELECT": self._select,
            "UPDATE": self._update,
            "DELETE": self._delete,
            "BEGIN": lambda: {"op": "begin"},
            "COMMIT": lambda: {"op": "commit"},
            "ROLLBACK": lambda: {"op": "rollback"},
        }.get(tok.value)
        if handler is None:
            raise SqlError(f"unsupported statement {tok.value}")
        if tok.value in ("BEGIN", "COMMIT", "ROLLBACK"):
            self.next()
        stmt = handler()
        self.accept("OP", ";")
        self.expect("END")
        return stmt

    def _create(self) -> Dict[str, Any]:
        self.expect("KEYWORD", "CREATE")
        if self.accept("KEYWORD", "INDEX"):
            self.expect("KEYWORD", "ON")
            table = self.expect("NAME").value
            self.expect("OP", "(")
            column = self.expect("NAME").value
            self.expect("OP", ")")
            kind = "hash"
            if self.accept("KEYWORD", "USING"):
                kind_tok = self.next()
                if kind_tok.value not in ("HASH", "SORTED"):
                    raise SqlError(f"unknown index kind {kind_tok.value!r}")
                kind = kind_tok.value.lower()
            return {"op": "create_index", "table": table, "column": column,
                    "kind": kind}
        self.expect("KEYWORD", "TABLE")
        name = self.expect("NAME").value
        self.expect("OP", "(")
        columns: List[Column] = []
        while True:
            col_name = self.expect("NAME").value
            type_tok = self.next()
            type_name = str(type_tok.value).upper()
            if type_name not in TYPES:
                raise SqlError(f"unknown type {type_tok.value!r}")
            primary = False
            nullable = True
            while True:
                if self.accept("KEYWORD", "PRIMARY"):
                    self.expect("KEYWORD", "KEY")
                    primary = True
                elif self.accept("KEYWORD", "NOT"):
                    self.expect("KEYWORD", "NULL")
                    nullable = False
                else:
                    break
            columns.append(Column(col_name, type_name, nullable=nullable,
                                  primary_key=primary))
            if not self.accept("OP", ","):
                break
        self.expect("OP", ")")
        return {"op": "create_table", "name": name, "columns": columns}

    def _drop(self) -> Dict[str, Any]:
        self.expect("KEYWORD", "DROP")
        self.expect("KEYWORD", "TABLE")
        return {"op": "drop_table", "name": self.expect("NAME").value}

    def _insert(self) -> Dict[str, Any]:
        self.expect("KEYWORD", "INSERT")
        self.expect("KEYWORD", "INTO")
        table = self.expect("NAME").value
        columns: Optional[List[str]] = None
        if self.accept("OP", "("):
            columns = [self.expect("NAME").value]
            while self.accept("OP", ","):
                columns.append(self.expect("NAME").value)
            self.expect("OP", ")")
        self.expect("KEYWORD", "VALUES")
        rows: List[List[Any]] = []
        while True:
            self.expect("OP", "(")
            row = [self._literal()]
            while self.accept("OP", ","):
                row.append(self._literal())
            self.expect("OP", ")")
            rows.append(row)
            if not self.accept("OP", ","):
                break
        return {"op": "insert", "table": table, "columns": columns, "rows": rows}

    def _select(self) -> Dict[str, Any]:
        self.expect("KEYWORD", "SELECT")
        columns: Optional[List[str]]
        aggregates: List[Tuple[str, str]] = []
        if self.accept("OP", "*"):
            columns = None
        else:
            items = [self._select_item()]
            while self.accept("OP", ","):
                items.append(self._select_item())
            plain = [item[1] for item in items if item[0] == "col"]
            aggregates = [(item[1], item[2]) for item in items
                          if item[0] == "agg"]
            columns = plain if (plain or not aggregates) else None
            if aggregates and columns is None:
                columns = []
        self.expect("KEYWORD", "FROM")
        table = self.expect("NAME").value
        where = self._where_clause()
        group_by: Optional[str] = None
        if self.accept("KEYWORD", "GROUP"):
            self.expect("KEYWORD", "BY")
            group_by = self.expect("NAME").value
        order_by: Optional[Tuple[str, bool]] = None
        if self.accept("KEYWORD", "ORDER"):
            self.expect("KEYWORD", "BY")
            col = self.expect("NAME").value
            descending = bool(self.accept("KEYWORD", "DESC"))
            if not descending:
                self.accept("KEYWORD", "ASC")
            order_by = (col, descending)
        limit: Optional[int] = None
        if self.accept("KEYWORD", "LIMIT"):
            limit = self.expect("INT").value
        if aggregates and group_by is None and columns:
            raise SqlError("plain columns next to aggregates need GROUP BY")
        if group_by is not None and not aggregates:
            raise SqlError("GROUP BY requires at least one aggregate")
        return {"op": "select", "table": table, "columns": columns,
                "aggregates": aggregates, "group_by": group_by,
                "where": where, "order_by": order_by, "limit": limit}

    def _select_item(self) -> Tuple[str, ...]:
        """One select-list item: a column, or AGG(column|*)."""
        tok = self.peek()
        if tok.kind == "KEYWORD" and tok.value in _AGGREGATES:
            func = self.next().value
            self.expect("OP", "(")
            if self.accept("OP", "*"):
                if func != "COUNT":
                    raise SqlError(f"{func}(*) is not valid; only COUNT(*)")
                arg = "*"
            else:
                arg = self.expect("NAME").value
            self.expect("OP", ")")
            return ("agg", func, arg)
        return ("col", self.expect("NAME").value)

    def _update(self) -> Dict[str, Any]:
        self.expect("KEYWORD", "UPDATE")
        table = self.expect("NAME").value
        self.expect("KEYWORD", "SET")
        updates: Dict[str, Any] = {}
        while True:
            col = self.expect("NAME").value
            self.expect("OP", "=")
            updates[col] = self._literal()
            if not self.accept("OP", ","):
                break
        return {"op": "update", "table": table, "updates": updates,
                "where": self._where_clause()}

    def _delete(self) -> Dict[str, Any]:
        self.expect("KEYWORD", "DELETE")
        self.expect("KEYWORD", "FROM")
        table = self.expect("NAME").value
        return {"op": "delete", "table": table, "where": self._where_clause()}

    def _where_clause(self) -> Optional[Expr]:
        if self.accept("KEYWORD", "WHERE"):
            return self._or_expr()
        return None

    # -- expression grammar: or -> and -> not -> predicate ------------------------

    def _or_expr(self) -> Expr:
        left = self._and_expr()
        while self.accept("KEYWORD", "OR"):
            right = self._and_expr()
            l, r = left, right
            left = Expr(lambda row, l=l, r=r: bool(l(row)) or bool(r(row)),
                        f"({left.repr} OR {right.repr})")
        return left

    def _and_expr(self) -> Expr:
        left = self._not_expr()
        while self.accept("KEYWORD", "AND"):
            right = self._not_expr()
            l, r = left, right
            left = Expr(lambda row, l=l, r=r: bool(l(row)) and bool(r(row)),
                        f"({left.repr} AND {right.repr})")
        return left

    def _not_expr(self) -> Expr:
        if self.accept("KEYWORD", "NOT"):
            inner = self._not_expr()
            return Expr(lambda row, i=inner: not bool(i(row)), f"(NOT {inner.repr})")
        return self._predicate()

    def _predicate(self) -> Expr:
        if self.accept("OP", "("):
            inner = self._or_expr()
            self.expect("OP", ")")
            return inner
        column = self.expect("NAME").value
        tok = self.peek()
        if tok.kind == "KEYWORD" and tok.value == "IS":
            self.next()
            negate = bool(self.accept("KEYWORD", "NOT"))
            self.expect("KEYWORD", "NULL")
            if negate:
                return Expr(lambda row, c=column: _col(row, c) is not None,
                            f"{column} IS NOT NULL")
            return Expr(lambda row, c=column: _col(row, c) is None,
                        f"{column} IS NULL")
        if tok.kind == "KEYWORD" and tok.value == "LIKE":
            self.next()
            pattern = self.expect("STRING").value
            regex = _like_to_regex(pattern)
            def like(row: Dict[str, Any], c=column, rx=regex) -> bool:
                v = _col(row, c)
                return isinstance(v, str) and rx.match(v) is not None
            return Expr(like, f"{column} LIKE {pattern!r}")
        if tok.kind == "OP" and tok.value in _COMPARATORS:
            op = self.next().value
            value = self._literal()
            cmp = _COMPARATORS[op]
            def compare(row: Dict[str, Any], c=column, v=value, f=cmp) -> bool:
                actual = _col(row, c)
                if actual is None or v is None:
                    return False  # SQL three-valued logic, collapsed to False
                try:
                    return f(actual, v)
                except TypeError:
                    return False
            expr = Expr(compare, f"{column} {op} {value!r}")
            # Expose simple comparisons for index routing.
            if op == "=":
                expr.eq_column = column  # type: ignore[attr-defined]
                expr.eq_value = value    # type: ignore[attr-defined]
            elif op in ("<", "<=", ">", ">=") and value is not None:
                expr.range_column = column  # type: ignore[attr-defined]
                expr.range_op = op          # type: ignore[attr-defined]
                expr.range_value = value    # type: ignore[attr-defined]
            return expr
        raise SqlError(f"bad predicate near {tok.value!r} at offset {tok.pos}")

    def _literal(self) -> Any:
        tok = self.next()
        if tok.kind in ("INT", "REAL", "STRING", "BLOB"):
            return tok.value
        if tok.kind == "KEYWORD" and tok.value == "NULL":
            return None
        raise SqlError(f"expected a literal, got {tok.value!r} at offset {tok.pos}")


def _col(row: Dict[str, Any], name: str) -> Any:
    try:
        return row[name]
    except KeyError:
        raise SqlError(f"no such column {name!r}") from None


# ------------------------------------------------------------------ executor

def execute_sql(db: Database, sql: str) -> Union[List[Dict[str, Any]], int, None]:
    """Parse and execute one SQL statement against *db*.

    Returns a list of row dicts for SELECT, an affected-row count for
    UPDATE/DELETE, the last rowid for INSERT, and ``None`` for DDL and
    transaction control.
    """
    stmt = Parser(sql).parse()
    op = stmt["op"]

    if op == "create_table":
        db.create_table(stmt["name"], stmt["columns"])
        return None
    if op == "drop_table":
        db.drop_table(stmt["name"])
        return None
    if op == "create_index":
        db.create_index(stmt["table"], stmt["column"], stmt["kind"])
        return None
    if op == "begin":
        db.begin()
        return None
    if op == "commit":
        db.commit()
        return None
    if op == "rollback":
        db.rollback()
        return None

    if op == "insert":
        table = db.tables.get(stmt["table"])
        if table is None:
            raise SqlError(f"no such table {stmt['table']!r}")
        names = table.schema.names()
        rowid = None
        for values in stmt["rows"]:
            if stmt["columns"] is not None:
                if len(values) != len(stmt["columns"]):
                    raise SqlError("VALUES arity does not match column list")
                mapping = dict(zip(stmt["columns"], values))
                unknown = set(mapping) - set(names)
                if unknown:
                    raise SqlError(f"unknown columns {sorted(unknown)}")
                row = [mapping.get(n) for n in names]
            else:
                row = list(values)
            rowid = db.insert(stmt["table"], row)
        return rowid

    if op == "select":
        where = stmt["where"]
        rows = _candidates(db, stmt["table"], where)
        if stmt.get("aggregates"):
            rows = _aggregate(rows, stmt["aggregates"], stmt["group_by"])
            if stmt["order_by"] is not None:
                col, descending = stmt["order_by"]
                rows.sort(key=lambda r: (r.get(col) is None, r.get(col)),
                          reverse=descending)
            if stmt["limit"] is not None:
                rows = rows[: stmt["limit"]]
            return rows
        if stmt["order_by"] is not None:
            col, descending = stmt["order_by"]
            rows.sort(key=lambda r: (r.get(col) is None, r.get(col)),
                      reverse=descending)
        if stmt["limit"] is not None:
            rows = rows[: stmt["limit"]]
        if stmt["columns"] is not None:
            missing = [c for c in stmt["columns"]
                       if rows and c not in rows[0]]
            if missing:
                raise SqlError(f"unknown columns {missing}")
            rows = [{c: r[c] for c in stmt["columns"]} for r in rows]
        return rows

    if op == "update":
        where = stmt["where"]
        if _keyed(db, stmt["table"], where):
            return db.update_eq(stmt["table"], where.eq_column,
                                where.eq_value, stmt["updates"])
        return db.update_where(stmt["table"], stmt["updates"],
                               where.fn if where else None)
    if op == "delete":
        where = stmt["where"]
        if _keyed(db, stmt["table"], where):
            return db.delete_eq(stmt["table"], where.eq_column,
                                where.eq_value)
        return db.delete_where(stmt["table"], where.fn if where else None)

    raise SqlError(f"unhandled statement {op!r}")  # pragma: no cover


def _aggregate(rows: List[Dict[str, Any]],
               aggregates: List[Tuple[str, str]],
               group_by: Optional[str]) -> List[Dict[str, Any]]:
    """Evaluate aggregate functions, optionally grouped.

    SQL semantics: aggregates ignore NULLs (COUNT(*) counts rows);
    without GROUP BY an empty input yields one row of COUNT=0 /
    others-NULL.
    """

    def evaluate(func: str, arg: str, group: List[Dict[str, Any]]) -> Any:
        if func == "COUNT" and arg == "*":
            return len(group)
        _checked(arg, group)
        values = [row[arg] for row in group if row.get(arg) is not None]
        if func == "COUNT":
            return len(values)
        if not values:
            return None
        if func == "SUM":
            return sum(values)
        if func == "AVG":
            return sum(values) / len(values)
        if func == "MIN":
            return min(values)
        return max(values)

    def _checked(arg: str, group: List[Dict[str, Any]]) -> str:
        if group and arg not in group[0]:
            raise SqlError(f"no such column {arg!r}")
        return arg

    def label(func: str, arg: str) -> str:
        return f"{func.lower()}({arg})"

    if group_by is None:
        return [{label(f, a): evaluate(f, a, rows) for f, a in aggregates}]
    groups: Dict[Any, List[Dict[str, Any]]] = {}
    for row in rows:
        groups.setdefault(_hashable_value(row[_checked(group_by, rows)]),
                          []).append(row)
    out = []
    for key in sorted(groups, key=lambda k: (k is None, k)):
        group = groups[key]
        record: Dict[str, Any] = {group_by: group[0][group_by]}
        for func, arg in aggregates:
            record[label(func, arg)] = evaluate(func, arg, group)
        out.append(record)
    return out


def _hashable_value(value: Any) -> Any:
    return bytes(value) if isinstance(value, bytearray) else value


def _keyed(db: Database, table: str, where: Optional[Expr]) -> bool:
    """Is *where* a top-level ``col = literal`` the engine can key on?

    NULL literals stay on the predicate path, where three-valued logic
    makes ``col = NULL`` match nothing (the engine's keyed calls compare
    with python ``==`` and would return the NULL rows).  So do unknown
    tables and columns, which keeps their error on the generic path.
    """
    eq_col = getattr(where, "eq_column", None)
    if eq_col is None or where.eq_value is None:  # type: ignore[union-attr]
        return False
    tbl = db.tables.get(table)
    return tbl is not None and eq_col in tbl.schema.names()


def _candidates(db: Database, table: str,
                where: Optional[Expr]) -> List[Dict[str, Any]]:
    """Rows matching *where*, routed through the cheapest access path.

    Top-level ``col = literal`` uses the engine's keyed lookup (primary
    key, hash or sorted index, positional scan); a top-level ``col < /
    <= / > / >= literal`` range uses a sorted index.  Everything else
    falls back to a predicate heap scan.
    """
    if _keyed(db, table, where):
        return db.find_eq(table, where.eq_column,   # type: ignore[union-attr]
                          where.eq_value)           # type: ignore[union-attr]
    range_col = getattr(where, "range_column", None)
    if (range_col is not None
            and isinstance(db._indexes.get((table, range_col)), SortedIndex)):
        op = where.range_op          # type: ignore[union-attr]
        value = where.range_value    # type: ignore[union-attr]
        if op in ("<", "<="):
            return db.find_range(table, range_col, hi=value,
                                 hi_open=(op == "<"))
        return db.find_range(table, range_col, lo=value,
                             lo_open=(op == ">"))
    return db.select(table, where.fn if where else None)
