"""Typed heap tables with schema validation."""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import DatabaseError, RecordNotFound

__all__ = ["Column", "Schema", "HeapTable", "TYPES"]

#: SQL type name -> python validator.
TYPES = {
    "INT": (int,),
    "REAL": (int, float),
    "TEXT": (str,),
    "BLOB": (bytes, bytearray),
}

#: SQL type name -> the exact python type a validated value has; a value
#: already of it needs no look (``bool`` is not ``int`` itself).
_STORED_AS = {"INT": int, "REAL": float, "TEXT": str, "BLOB": bytes}


class Column:
    """One column: name, SQL type, nullability, primary-key flag."""

    __slots__ = ("name", "type", "nullable", "primary_key")

    def __init__(self, name: str, type: str, nullable: bool = True,
                 primary_key: bool = False):
        type = type.upper()
        if type not in TYPES:
            raise DatabaseError(f"unknown column type {type!r}")
        if not name or not name.replace("_", "").isalnum():
            raise DatabaseError(f"invalid column name {name!r}")
        self.name = name
        self.type = type
        # A primary key is implicitly NOT NULL.
        self.nullable = nullable and not primary_key
        self.primary_key = primary_key

    def validate(self, value: Any) -> Any:
        """Check (and lightly coerce) *value* for this column."""
        if value is None:
            if not self.nullable:
                raise DatabaseError(f"column {self.name!r} is NOT NULL")
            return None
        expected = TYPES[self.type]
        if isinstance(value, bool):  # bool is an int subclass; reject it
            raise DatabaseError(f"column {self.name!r}: booleans not supported")
        if not isinstance(value, expected):
            raise DatabaseError(
                f"column {self.name!r} ({self.type}) got {type(value).__name__}"
            )
        if self.type == "REAL":
            return float(value)
        if self.type == "BLOB":
            return bytes(value)
        return value

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        flags = " PK" if self.primary_key else ("" if self.nullable else " NOT NULL")
        return f"<Column {self.name} {self.type}{flags}>"


class Schema:
    """An ordered set of columns."""

    def __init__(self, columns: Sequence[Column]):
        if not columns:
            raise DatabaseError("a table needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise DatabaseError(f"duplicate column names in {names}")
        pks = [c for c in columns if c.primary_key]
        if len(pks) > 1:
            raise DatabaseError("at most one PRIMARY KEY column is supported")
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._names: Tuple[str, ...] = tuple(names)
        self._by_name: Dict[str, int] = {c.name: i for i, c in enumerate(columns)}
        self._stored: Tuple[type, ...] = tuple(
            _STORED_AS[c.type] for c in columns)
        #: Positions of the BLOB columns (what makes a row heavy).
        self.blob_positions: Tuple[int, ...] = tuple(
            i for i, c in enumerate(columns) if c.type == "BLOB")
        self.primary_key: Optional[Column] = pks[0] if pks else None
        #: Column position of the primary key (None without one).
        self.pk_pos: Optional[int] = (
            self._by_name[pks[0].name] if pks else None)

    def index_of(self, name: str) -> int:
        """Column position of *name* (raises on unknown column)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise DatabaseError(f"no such column {name!r}") from None

    def names(self) -> Tuple[str, ...]:
        return self._names

    def validate_row(self, row: Sequence[Any]) -> Tuple[Any, ...]:
        if len(row) != len(self.columns):
            raise DatabaseError(
                f"row has {len(row)} values, schema has {len(self.columns)}"
            )
        return tuple([v if type(v) is kind else col.validate(v)
                      for col, kind, v in zip(self.columns, self._stored, row)])

    def __len__(self) -> int:
        return len(self.columns)


class HeapTable:
    """Rows stored by monotonically-assigned rowid.

    The table enforces schema validation and primary-key uniqueness; all
    higher-level behaviour (indexes, transactions, SQL) lives above it.
    """

    def __init__(self, name: str, schema: Schema):
        self.name = name
        self.schema = schema
        # Kept in rowid order: inserts append ever-larger rowids, and the
        # one out-of-order writer (restore) flags a lazy re-sort.
        self._rows: Dict[int, Tuple[Any, ...]] = {}
        self._unsorted = False
        self._next_rowid = 1
        # Primary-key value -> rowid, for O(1) uniqueness + point lookup.
        self._pk_map: Dict[Any, int] = {}
        # MVCC version chains, driven by the Database: rowid -> list of
        # (last_valid_seq, row-or-None) committed images, in seq order.
        # ``row is None`` means the rowid did not exist at that seq.
        self._versions: Dict[int, List[Tuple[int, Optional[Tuple[Any, ...]]]]] = {}

    # -- mutation --------------------------------------------------------------

    def insert(self, row: Sequence[Any]) -> int:
        """Insert *row*, returning its rowid."""
        validated = self.schema.validate_row(row)
        pk_pos = self.schema.pk_pos
        if pk_pos is not None:
            key = validated[pk_pos]
            if key in self._pk_map:
                raise DatabaseError(
                    f"{self.name}: duplicate primary key {key!r}"
                )
            self._pk_map[key] = self._next_rowid
        rowid = self._next_rowid
        self._next_rowid += 1
        self._rows[rowid] = validated
        return rowid

    def delete(self, rowid: int) -> Tuple[Any, ...]:
        """Remove and return the row at *rowid*."""
        try:
            row = self._rows.pop(rowid)
        except KeyError:
            raise RecordNotFound(f"{self.name}: no rowid {rowid}") from None
        pk_pos = self.schema.pk_pos
        if pk_pos is not None:
            self._pk_map.pop(row[pk_pos], None)
        return row

    def update(self, rowid: int, row: Sequence[Any]) -> Tuple[Any, ...]:
        """Replace the row at *rowid*, returning the old row."""
        if rowid not in self._rows:
            raise RecordNotFound(f"{self.name}: no rowid {rowid}")
        validated = self.schema.validate_row(row)
        old = self._rows[rowid]
        idx = self.schema.pk_pos
        if idx is not None and validated[idx] != old[idx]:
            if validated[idx] in self._pk_map:
                raise DatabaseError(
                    f"{self.name}: duplicate primary key {validated[idx]!r}"
                )
            del self._pk_map[old[idx]]
            self._pk_map[validated[idx]] = rowid
        self._rows[rowid] = validated
        return old

    def restore(self, rowid: int, row: Tuple[Any, ...]) -> None:
        """Reinstall a previously deleted row (transaction rollback)."""
        if rowid in self._rows:
            raise DatabaseError(f"{self.name}: rowid {rowid} already present")
        if rowid < self._next_rowid:
            self._unsorted = True  # lands behind a larger rowid
        self._rows[rowid] = row
        pk_pos = self.schema.pk_pos
        if pk_pos is not None:
            self._pk_map[row[pk_pos]] = rowid
        self._next_rowid = max(self._next_rowid, rowid + 1)

    # -- multi-version concurrency (driven by the Database) ----------------------

    def save_version(self, rowid: int, last_seq: int,
                     row: Optional[Tuple[Any, ...]]) -> None:
        """Record that *row* (None = absent) was the committed image of
        *rowid* through commit-sequence *last_seq*."""
        self._versions.setdefault(rowid, []).append((last_seq, row))

    def discard_version(self, rowid: int, last_seq: int) -> None:
        """Drop the version staged at *last_seq* (writer rollback)."""
        chain = self._versions.get(rowid)
        if chain and chain[-1][0] == last_seq:
            chain.pop()
            if not chain:
                del self._versions[rowid]

    def visible_row(self, rowid: int,
                    watermark: int) -> Optional[Tuple[Any, ...]]:
        """Committed image of *rowid* as of *watermark* (None = absent)."""
        for last_seq, row in self._versions.get(rowid, ()):
            if last_seq >= watermark:
                return row
        return self._rows.get(rowid)

    def versioned_ids(self) -> set:
        """All rowids that may be visible to some snapshot."""
        return set(self._rows) | set(self._versions)

    def has_versions(self) -> bool:
        return bool(self._versions)

    def prune_versions(self, watermark: int) -> None:
        """Drop version entries no snapshot at >= *watermark* can need."""
        for rowid in list(self._versions):
            chain = [(s, r) for s, r in self._versions[rowid]
                     if s >= watermark]
            if chain:
                self._versions[rowid] = chain
            else:
                del self._versions[rowid]

    # -- access -----------------------------------------------------------------

    def get(self, rowid: int) -> Tuple[Any, ...]:
        try:
            return self._rows[rowid]
        except KeyError:
            raise RecordNotFound(f"{self.name}: no rowid {rowid}") from None

    def lookup_pk(self, key: Any) -> Optional[int]:
        """Rowid for a primary-key value, or None."""
        return self._pk_map.get(key)

    def scan(self) -> Iterator[Tuple[int, Tuple[Any, ...]]]:
        """Iterate (rowid, row) in rowid order.

        A live view: collect what you need before inserting or deleting.
        """
        return iter(self._ordered().items())

    def image(self) -> Tuple[Tuple[int, ...], Tuple[Tuple[Any, ...], ...]]:
        """All rowids, and the row at each, in rowid order."""
        rows = self._ordered()
        return tuple(rows), tuple(rows.values())

    def _ordered(self) -> Dict[int, Tuple[Any, ...]]:
        if self._unsorted:
            self._rows = dict(sorted(self._rows.items()))
            self._unsorted = False
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<HeapTable {self.name!r} rows={len(self)}>"
