"""The database engine: tables + indexes + WAL + transactions.

Concurrency model: single writer, serialized transactions (matching the
way onServe's DbManager used its MySQL connection).  Every mutation is
logged to the write-ahead log *before* being applied, so a crash at any
byte boundary recovers to the last committed transaction.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import DatabaseError, RecordNotFound, TransactionError
from repro.db.index import HashIndex, SortedIndex
from repro.db.table import Column, HeapTable, Schema
from repro.db.wal import WriteAheadLog

__all__ = ["Database", "Snapshot"]

Predicate = Callable[[Dict[str, Any]], bool]


class Database:
    """An embedded single-writer relational database.

    With ``mvcc=True`` the engine keeps per-row version chains so that
    :meth:`snapshot` read handles observe the last *committed* state even
    while a writer transaction is open (snapshot isolation for readers).
    Version bookkeeping is pure python — it creates no simulation events.
    """

    def __init__(self, wal: Optional[WriteAheadLog] = None,
                 mvcc: bool = False):
        self.wal = wal if wal is not None else WriteAheadLog()
        self.tables: Dict[str, HeapTable] = {}
        self._indexes: Dict[Tuple[str, str], Any] = {}
        self._txn_counter = itertools.count(1)
        self._active_txn: Optional[int] = None
        self._undo: List[Tuple] = []
        #: Snapshot-isolation reads enabled?
        self.mvcc = bool(mvcc)
        # Commit-sequence watermark: bumps on every commit (incl. autocommit).
        self._commit_seq = 0
        # (table, rowid) pairs whose pre-image was saved by the active txn.
        self._txn_touched: Set[Tuple[str, int]] = set()
        # Open snapshot read handles (for version pruning).
        self._snapshots: List["Snapshot"] = []
        #: Query-planner counters (pure bookkeeping, used by tests/telemetry).
        self.stats: Dict[str, int] = {
            "rows_scanned": 0, "index_rows": 0, "snapshot_reads": 0,
        }

    # ------------------------------------------------------------------ DDL

    def _ddl_guard(self, what: str) -> None:
        # DDL is autocommitted and has no undo entries, so allowing it
        # inside an explicit transaction would make rollback() lie.
        if self._active_txn is not None:
            raise TransactionError(
                f"{what} inside an active transaction is not supported; "
                f"commit or roll back first")

    def create_table(self, name: str, columns: Sequence[Column]) -> None:
        """Create a table (autocommitted DDL)."""
        self._ddl_guard("create_table")
        if name in self.tables:
            raise DatabaseError(f"table {name!r} already exists")
        schema = Schema(columns)
        self.wal.append((
            "create_table", name,
            [[c.name, c.type, int(c.nullable), int(c.primary_key)]
             for c in schema.columns],
        ))
        self.tables[name] = HeapTable(name, schema)

    def drop_table(self, name: str) -> None:
        """Drop a table and its indexes (autocommitted DDL)."""
        self._ddl_guard("drop_table")
        self._table(name)  # existence check
        self.wal.append(("drop_table", name))
        del self.tables[name]
        for key in [k for k in self._indexes if k[0] == name]:
            del self._indexes[key]

    def create_index(self, table: str, column: str, kind: str = "hash") -> None:
        """Create (and backfill) a secondary index on table.column."""
        self._ddl_guard("create_index")
        tbl = self._table(table)
        tbl.schema.index_of(column)  # validates the column exists
        if (table, column) in self._indexes:
            raise DatabaseError(f"index on {table}.{column} already exists")
        if kind == "hash":
            index: Any = HashIndex(table, column)
        elif kind == "sorted":
            index = SortedIndex(table, column)
        else:
            raise DatabaseError(f"unknown index kind {kind!r}")
        self.wal.append(("create_index", table, column, kind))
        col_pos = tbl.schema.index_of(column)
        for rowid, row in tbl.scan():
            index.add(row[col_pos], rowid)
        self._indexes[(table, column)] = index

    # ------------------------------------------------------------ transactions

    def begin(self) -> int:
        """Start an explicit transaction; returns its id."""
        if self._active_txn is not None:
            raise TransactionError("a transaction is already active")
        txn = next(self._txn_counter)
        self._active_txn = txn
        self._undo = []
        self.wal.append(("begin", txn))
        return txn

    def commit(self) -> None:
        """Commit the active transaction."""
        if self._active_txn is None:
            raise TransactionError("no active transaction")
        self.wal.append(("commit", self._active_txn))
        self._active_txn = None
        self._undo = []
        # The staged pre-images become permanent history at the old
        # watermark; open snapshots keep reading them.
        self._commit_seq += 1
        self._txn_touched = set()
        self._prune_versions()

    def rollback(self) -> None:
        """Abort the active transaction, undoing its changes in memory."""
        if self._active_txn is None:
            raise TransactionError("no active transaction")
        self.wal.append(("abort", self._active_txn))
        for entry in reversed(self._undo):
            op = entry[0]
            if op == "insert":
                _, table, rowid = entry
                row = self.tables[table].delete(rowid)
                self._index_remove(table, rowid, row)
            elif op == "delete":
                _, table, rowid, old = entry
                self.tables[table].restore(rowid, old)
                self._index_add(table, rowid, old)
            elif op == "update":
                _, table, rowid, old, new = entry
                self.tables[table].update(rowid, old)
                self._index_remove(table, rowid, new)
                self._index_add(table, rowid, old)
        # Discard the pre-images this txn staged: the heap already holds
        # the restored (committed) values again.
        for table, rowid in self._txn_touched:
            tbl = self.tables.get(table)
            if tbl is not None:
                tbl.discard_version(rowid, self._commit_seq)
        self._txn_touched = set()
        self._active_txn = None
        self._undo = []

    @contextmanager
    def transaction(self):
        """``with db.transaction():`` — commit on success, rollback on error."""
        self.begin()
        try:
            yield self
        except BaseException:
            self.rollback()
            raise
        else:
            self.commit()

    def _txn_scope(self):
        """Implicit autocommit wrapper for single statements."""
        if self._active_txn is not None:
            return _null_context()
        return self.transaction()

    # ------------------------------------------------------------------ DML

    def insert(self, table: str, row: Sequence[Any]) -> int:
        """Insert *row* into *table*, returning the new rowid."""
        tbl = self._table(table)
        with self._txn_scope():
            rowid = tbl.insert(row)
            stored = tbl.get(rowid)
            self._save_preimage(table, rowid, None)
            self.wal.append(("insert", self._active_txn, table, rowid,
                             list(stored)))
            self._undo.append(("insert", table, rowid))
            self._index_add(table, rowid, stored)
        return rowid

    def delete_where(self, table: str, predicate: Optional[Predicate] = None) -> int:
        """Delete matching rows; returns the count removed."""
        tbl = self._table(table)
        return self._delete_rowids(tbl, self._rowids_where(tbl, predicate))

    def delete_eq(self, table: str, column: str, value: Any) -> int:
        """Delete the rows whose *column* equals *value* (keyed, no scan
        when the column is the primary key or indexed)."""
        tbl = self._table(table)
        return self._delete_rowids(tbl,
                                   self._rowids_eq(table, column, value))

    def update_where(self, table: str,
                     updates: Dict[str, Any],
                     predicate: Optional[Predicate] = None) -> int:
        """Set columns on matching rows; returns the count changed."""
        tbl = self._table(table)
        changes = [(tbl.schema.index_of(c), v) for c, v in updates.items()]
        return self._update_rowids(tbl, changes,
                                   self._rowids_where(tbl, predicate))

    def update_eq(self, table: str, column: str, value: Any,
                  updates: Dict[str, Any]) -> int:
        """Set columns on the rows whose *column* equals *value* (keyed)."""
        tbl = self._table(table)
        changes = [(tbl.schema.index_of(c), v) for c, v in updates.items()]
        return self._update_rowids(tbl, changes,
                                   self._rowids_eq(table, column, value))

    def _delete_rowids(self, tbl: HeapTable, victims: List[int]) -> int:
        table = tbl.name
        with self._txn_scope():
            for rowid in victims:
                old = tbl.delete(rowid)
                self._save_preimage(table, rowid, old)
                self.wal.append(("delete", self._active_txn, table, rowid,
                                 list(old)))
                self._undo.append(("delete", table, rowid, old))
                self._index_remove(table, rowid, old)
        return len(victims)

    def _update_rowids(self, tbl: HeapTable,
                       changes: List[Tuple[int, Any]],
                       targets: List[int]) -> int:
        table = tbl.name
        with self._txn_scope():
            for rowid in targets:
                old = tbl.get(rowid)
                new = list(old)
                for pos, value in changes:
                    new[pos] = value
                self._save_preimage(table, rowid, old)
                tbl.update(rowid, new)
                stored = tbl.get(rowid)
                self.wal.append(("update", self._active_txn, table, rowid,
                                 list(old), list(stored)))
                self._undo.append(("update", table, rowid, old, stored))
                self._index_remove(table, rowid, old)
                self._index_add(table, rowid, stored)
        return len(targets)

    # ---------------------------------------------------------------- queries

    def select(self, table: str, predicate: Optional[Predicate] = None,
               columns: Optional[Sequence[str]] = None) -> List[Dict[str, Any]]:
        """Rows (as dicts) matching *predicate*, optionally projected."""
        tbl = self._table(table)
        out = []
        for _rowid, row in tbl.scan():
            self.stats["rows_scanned"] += 1
            record = self._as_dict(tbl, row)
            if predicate is None or predicate(record):
                if columns is not None:
                    record = {c: record[c] for c in columns}
                out.append(record)
        return out

    def find_eq(self, table: str, column: str, value: Any) -> List[Dict[str, Any]]:
        """Equality lookup: primary key, then index, then heap scan."""
        tbl = self._table(table)
        return [self._as_dict(tbl, tbl.get(r))
                for r in self._rowids_eq(table, column, value)]

    def find_range(self, table: str, column: str,
                   lo: Any = None, hi: Any = None,
                   lo_open: bool = False,
                   hi_open: bool = False) -> List[Dict[str, Any]]:
        """Range lookup, via a sorted index when one exists.

        Bounds follow SQL semantics: ``None`` column values never match,
        ``lo_open``/``hi_open`` exclude the endpoint.  Results come back
        in rowid order (matching a heap scan).
        """
        tbl = self._table(table)
        index = self._indexes.get((table, column))
        if isinstance(index, SortedIndex):
            try:
                rowids = sorted(index.range(lo, hi, lo_open, hi_open))
            except TypeError:
                rowids = None  # uncomparable bound; fall back to a scan
            if rowids is not None:
                self.stats["index_rows"] += len(rowids)
                return [self._as_dict(tbl, tbl.get(r)) for r in rowids]
        col_pos = tbl.schema.index_of(column)
        out = []
        for _r, row in tbl.scan():
            self.stats["rows_scanned"] += 1
            v = row[col_pos]
            if v is None:
                continue
            try:
                if lo is not None and (v < lo or (lo_open and v == lo)):
                    continue
                if hi is not None and (v > hi or (hi_open and v == hi)):
                    continue
            except TypeError:
                continue  # SQL three-valued logic, collapsed to no-match
            out.append(self._as_dict(tbl, row))
        return out

    def get_by_pk(self, table: str, key: Any) -> Dict[str, Any]:
        """Primary-key point lookup."""
        tbl = self._table(table)
        if tbl.schema.primary_key is None:
            raise DatabaseError(f"table {table!r} has no primary key")
        rowid = tbl.lookup_pk(key)
        if rowid is None:
            raise RecordNotFound(f"{table}: no row with pk {key!r}")
        return self._as_dict(tbl, tbl.get(rowid))

    def count(self, table: str) -> int:
        return len(self._table(table))

    def snapshot(self) -> "Snapshot":
        """Open a read handle pinned to the last committed state.

        With MVCC enabled the handle ignores every mutation staged by an
        open writer transaction (and any commit after the handle was
        opened).  Without MVCC it simply reads current state.  Close it
        (or use ``with``) so version chains can be pruned.
        """
        return Snapshot(self)

    # ----------------------------------------------------------- persistence

    def checkpoint(self) -> None:
        """Compact the WAL: rewrite it as a snapshot of current state."""
        if self._active_txn is not None:
            raise TransactionError("cannot checkpoint inside a transaction")
        self.wal.reset()
        for name, tbl in self.tables.items():
            self.wal.append((
                "create_table", name,
                [[c.name, c.type, int(c.nullable), int(c.primary_key)]
                 for c in tbl.schema.columns],
            ))
        for (table, column), index in self._indexes.items():
            kind = "hash" if isinstance(index, HashIndex) else "sorted"
            self.wal.append(("create_index", table, column, kind))
        txn = next(self._txn_counter)
        self.wal.append(("begin", txn))
        for name, tbl in self.tables.items():
            for rowid, row in tbl.scan():
                self.wal.append(("insert", txn, name, rowid, list(row)))
        self.wal.append(("commit", txn))

    @classmethod
    def recover(cls, wal_image: bytes, mvcc: bool = False) -> "Database":
        """Rebuild a database from a WAL image (crash recovery).

        DDL is replayed unconditionally; DML only for transactions whose
        commit record survives.
        """
        log = WriteAheadLog(wal_image)
        records = list(log.records())
        committed: Set[int] = {r[1] for r in records if r[0] == "commit"}

        db = cls(wal=WriteAheadLog(), mvcc=mvcc)
        max_txn = 0
        for record in records:
            op = record[0]
            if op == "create_table":
                _, name, cols = record
                columns = [Column(n, t, nullable=bool(nl), primary_key=bool(pk))
                           for n, t, nl, pk in cols]
                db.create_table(name, columns)
            elif op == "drop_table":
                if record[1] in db.tables:
                    db.drop_table(record[1])
            elif op == "create_index":
                _, table, column, kind = record
                if (table, column) not in db._indexes and table in db.tables:
                    db.create_index(table, column, kind)
            elif op in ("begin", "commit", "abort"):
                max_txn = max(max_txn, record[1])
            elif op == "insert":
                _, txn, table, rowid, values = record
                max_txn = max(max_txn, txn)
                if txn in committed and table in db.tables:
                    tbl = db.tables[table]
                    tbl.restore(rowid, tbl.schema.validate_row(values))
                    db._index_add(table, rowid, tuple(values))
            elif op == "delete":
                _, txn, table, rowid, _old = record
                max_txn = max(max_txn, txn)
                if txn in committed and table in db.tables:
                    old = db.tables[table].delete(rowid)
                    db._index_remove(table, rowid, old)
            elif op == "update":
                _, txn, table, rowid, old, new = record
                max_txn = max(max_txn, txn)
                if txn in committed and table in db.tables:
                    db.tables[table].update(rowid, new)
                    db._index_remove(table, rowid, tuple(old))
                    db._index_add(table, rowid, tuple(new))
        db._txn_counter = itertools.count(max_txn + 1)
        # The recovered database starts a fresh log reflecting its state.
        db.checkpoint()
        return db

    # ----------------------------------------------------------------- internals

    def _save_preimage(self, table: str, rowid: int,
                       old_row: Optional[Tuple[Any, ...]]) -> None:
        """Stage the committed image of a row on its first touch in a txn."""
        if not self.mvcc or self._active_txn is None:
            return
        key = (table, rowid)
        if key in self._txn_touched:
            return
        self._txn_touched.add(key)
        self.tables[table].save_version(rowid, self._commit_seq, old_row)

    def _prune_versions(self) -> None:
        """Drop version history no open snapshot can still need."""
        if not self.mvcc:
            return
        watermark = min((s.watermark for s in self._snapshots),
                        default=self._commit_seq)
        for tbl in self.tables.values():
            if tbl.has_versions():
                tbl.prune_versions(watermark)

    def _rowids_eq(self, table: str, column: str, value: Any) -> List[int]:
        """Rowids whose *column* equals *value*, in rowid order.

        The one access path for point reads and keyed DML: primary-key
        map, else hash index, else sorted index, else a positional heap
        scan.  A value the keyed rung cannot hash or compare drops to
        the scan, which answers with plain ``==``.
        """
        tbl = self._table(table)
        col_pos = tbl.schema.index_of(column)
        pk = tbl.schema.primary_key
        rowids: Optional[List[int]] = None
        try:
            if pk is not None and pk.name == column:
                rowid = tbl.lookup_pk(value)
                rowids = [] if rowid is None else [rowid]
            else:
                index = self._indexes.get((table, column))
                if isinstance(index, HashIndex):
                    rowids = sorted(index.find(value))
                elif isinstance(index, SortedIndex) and value is not None:
                    rowids = sorted(index.range(value, value))
        except TypeError:
            pass  # unhashable or uncomparable value: the scan answers it
        if rowids is not None:
            self.stats["index_rows"] += len(rowids)
            return rowids
        self.stats["rows_scanned"] += len(tbl)
        return [rowid for rowid, row in tbl.scan() if row[col_pos] == value]

    def _rowids_where(self, tbl: HeapTable,
                      predicate: Optional[Predicate]) -> List[int]:
        """Rowids matching an arbitrary *predicate*: always a full scan."""
        self.stats["rows_scanned"] += len(tbl)
        if predicate is None:
            return [rowid for rowid, _row in tbl.scan()]
        return [rowid for rowid, row in tbl.scan()
                if predicate(self._as_dict(tbl, row))]

    def _table(self, name: str) -> HeapTable:
        try:
            return self.tables[name]
        except KeyError:
            raise DatabaseError(f"no such table {name!r}") from None

    @staticmethod
    def _as_dict(tbl: HeapTable, row: Tuple[Any, ...]) -> Dict[str, Any]:
        return dict(zip(tbl.schema.names(), row))

    def _index_add(self, table: str, rowid: int, row: Tuple[Any, ...]) -> None:
        tbl = self.tables[table]
        for (tname, column), index in self._indexes.items():
            if tname == table:
                index.add(row[tbl.schema.index_of(column)], rowid)

    def _index_remove(self, table: str, rowid: int, row: Tuple[Any, ...]) -> None:
        tbl = self.tables.get(table)
        if tbl is None:
            return
        for (tname, column), index in self._indexes.items():
            if tname == table:
                index.remove(row[tbl.schema.index_of(column)], rowid)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<Database tables={sorted(self.tables)}>"


class Snapshot:
    """A read-only view of the last committed database state.

    Opened via :meth:`Database.snapshot`.  The handle resolves each row
    through the table's version chain at its pinned watermark, so writes
    staged by an open transaction — and commits that land after the
    handle was opened — are invisible.  Reads fall back to the plain
    (indexed) paths whenever a table has no version history, so the
    uncontended case stays O(index lookup).
    """

    def __init__(self, db: Database):
        self._db = db
        #: Commit-sequence this handle is pinned to.
        self.watermark = db._commit_seq
        self.closed = False
        db._snapshots.append(self)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._db._snapshots.remove(self)
            self._db._prune_versions()

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.close()
        return False

    # -- reads -------------------------------------------------------------

    def _iter_rows(self, tbl: HeapTable):
        """(rowid, row) pairs visible at the watermark, in rowid order."""
        if not self._db.mvcc or not tbl.has_versions():
            yield from tbl.scan()
            return
        for rowid in sorted(tbl.versioned_ids()):
            row = tbl.visible_row(rowid, self.watermark)
            if row is not None:
                yield rowid, row

    def select(self, table: str, predicate: Optional[Predicate] = None,
               columns: Optional[Sequence[str]] = None) -> List[Dict[str, Any]]:
        """Snapshot-visible rows matching *predicate*."""
        db = self._db
        db.stats["snapshot_reads"] += 1
        tbl = db._table(table)
        out = []
        for _rowid, row in self._iter_rows(tbl):
            db.stats["rows_scanned"] += 1
            record = db._as_dict(tbl, row)
            if predicate is None or predicate(record):
                if columns is not None:
                    record = {c: record[c] for c in columns}
                out.append(record)
        return out

    def find_eq(self, table: str, column: str,
                value: Any) -> List[Dict[str, Any]]:
        """Equality lookup against the snapshot.

        Falls back to a resolved scan when version history exists for
        the table: secondary indexes reflect uncommitted writes, so they
        cannot serve a snapshot directly.
        """
        db = self._db
        tbl = db._table(table)
        if not db.mvcc or not tbl.has_versions():
            db.stats["snapshot_reads"] += 1
            return db.find_eq(table, column, value)
        db.stats["snapshot_reads"] += 1
        col_pos = tbl.schema.index_of(column)
        out = []
        for _rowid, row in self._iter_rows(tbl):
            db.stats["rows_scanned"] += 1
            if row[col_pos] == value:
                out.append(db._as_dict(tbl, row))
        return out

    def get_by_pk(self, table: str, key: Any) -> Dict[str, Any]:
        """Primary-key point lookup against the snapshot."""
        db = self._db
        tbl = db._table(table)
        if not db.mvcc or not tbl.has_versions():
            db.stats["snapshot_reads"] += 1
            return db.get_by_pk(table, key)
        db.stats["snapshot_reads"] += 1
        pk = tbl.schema.primary_key
        if pk is None:
            raise DatabaseError(f"table {table!r} has no primary key")
        pk_pos = tbl.schema.index_of(pk.name)
        for _rowid, row in self._iter_rows(tbl):
            db.stats["rows_scanned"] += 1
            if row[pk_pos] == key:
                return db._as_dict(tbl, row)
        raise RecordNotFound(f"{table}: no row with pk {key!r}")

    def count(self, table: str) -> int:
        """Snapshot-visible row count."""
        db = self._db
        db.stats["snapshot_reads"] += 1
        tbl = db._table(table)
        if not db.mvcc or not tbl.has_versions():
            return len(tbl)
        return sum(1 for _ in self._iter_rows(tbl))

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        state = "closed" if self.closed else "open"
        return f"<Snapshot @{self.watermark} {state}>"


@contextmanager
def _null_context():
    yield
