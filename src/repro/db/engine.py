"""The database engine: tables + indexes + WAL + transactions.

Concurrency model: single writer, serialized transactions (matching the
way onServe's DbManager used its MySQL connection).  A transaction's
DML collects in one list that serves as both its undo and its redo
log: ``rollback()`` walks it backwards and ``commit()`` appends it to
the write-ahead log as **one CRC-framed record**, so a crash at any
byte boundary recovers to the last committed transaction; a rollback,
an empty transaction and a keyed miss write nothing.

The log does not grow with the rows it has outlived: ``commit()`` counts
the bytes its deletes and updates kill and, once they outweigh what is
live, rewrites the log as an image of the committed state — silently,
nothing is shipped or drawn for it (see ``Database._compact``).
"""

from __future__ import annotations

from operator import is_
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import DatabaseError, RecordNotFound, TransactionError
from repro.db.index import HashIndex, SortedIndex
from repro.db.table import Column, HeapTable, Schema
from repro.db.wal import WriteAheadLog, encode_frame

__all__ = ["Database", "Snapshot"]

Predicate = Callable[[Dict[str, Any]], bool]

#: Dead log bytes under which the log is never compacted.  A constant,
#: not a knob: it bounds host memory only — the log's size carries no
#: simulated cost and a compaction creates no event, record or bus event.
_COMPACT_FLOOR = 8 * 1024 * 1024

#: Rows per frame of a compacted image.  A frame whose rows are the very
#: objects it was encoded from is handed to the next image as it is, so
#: a compaction costs what changed since the last one, not what is live.
_IMAGE_CHUNK = 32

#: What a superseded row image weighs in the log besides its BLOBs (its
#: frame entry, roughly): the dead-byte count is an estimate.
_ROW_BYTES = 64


def _create_table_record(name: str, schema: Schema) -> Tuple[Any, ...]:
    return ("create_table", name,
            [[c.name, c.type, int(c.nullable), int(c.primary_key)]
             for c in schema.columns])


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
        # table -> [(column position, index)], what every write walks.
        self._table_indexes: Dict[str, List[Tuple[int, Any]]] = {}
        self._last_txn = 0  # ids count up; a compacted image reuses it
        self._active_txn: Optional[int] = None
        # The active transaction's DML, in order, each entry with the
        # row image before and after: commit() logs the list as the body
        # of the frame, rollback() walks it backwards.
        self._txn_dml: List[Tuple] = []
        #: Snapshot-isolation reads enabled?
        self.mvcc = bool(mvcc)
        # Commit-sequence watermark: bumps on every commit (incl. autocommit).
        self._commit_seq = 0
        # (table, rowid) pairs whose pre-image was saved by the active txn.
        self._txn_touched: Set[Tuple[str, int]] = set()
        # Open snapshot read handles (for version pruning).
        self._snapshots: List["Snapshot"] = []
        # Log bytes a compaction would shed, estimated as commits kill
        # row images (see commit()).
        self._dead_bytes = 0
        # The frames of the last compacted image, each with what it
        # encodes: (table, first rowid) -> (rowids, rows, frame).
        self._image: Dict[Tuple[str, int], Tuple] = {}
        #: Query-planner and log counters (pure bookkeeping, used by
        #: tests/telemetry).
        self.stats: Dict[str, int] = {
            "rows_scanned": 0, "index_rows": 0, "snapshot_reads": 0,
            "compactions": 0,
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
        self.wal.append(_create_table_record(name, schema))
        self.tables[name] = HeapTable(name, schema)

    def drop_table(self, name: str) -> None:
        """Drop a table and its indexes (autocommitted DDL)."""
        self._ddl_guard("drop_table")
        self._table(name)  # existence check
        self.wal.append(("drop_table", name))
        del self.tables[name]
        for key in [k for k in self._indexes if k[0] == name]:
            del self._indexes[key]
        self._table_indexes.pop(name, None)

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
        self._table_indexes.setdefault(table, []).append((col_pos, index))

    # ------------------------------------------------------------ transactions

    def begin(self) -> int:
        """Start an explicit transaction; returns its id."""
        if self._active_txn is not None:
            raise TransactionError("a transaction is already active")
        self._last_txn += 1
        self._active_txn = self._last_txn
        return self._last_txn

    def commit(self) -> None:
        """Commit the active transaction: its DML becomes one WAL frame.

        A delete or update leaves two dead row images in the log — the
        one it superseded and the copy its own entry carries; once they
        outweigh both :data:`_COMPACT_FLOOR` and what is still live, the
        log is compacted on the spot.
        """
        txn = self._active_txn
        if txn is None:
            raise TransactionError("no active transaction")
        dml = self._txn_dml
        if dml:
            self.wal.append(("txn", txn, dml))
            self._txn_dml = []  # rebound, not cleared: the taps keep it
            killed = 0
            for entry in dml:
                if entry[0] != "insert":
                    killed += _ROW_BYTES
                    for pos in self.tables[entry[1]].schema.blob_positions:
                        killed += len(entry[3][pos] or b"")
            self._dead_bytes += 2 * killed
        self._active_txn = None
        # The staged pre-images become permanent history at the old
        # watermark; open snapshots keep reading them.
        self._commit_seq += 1
        if self._txn_touched:
            # Only the tables this transaction versioned can hold
            # anything newly prunable; a closing snapshot sweeps them all.
            self._prune_versions({table for table, _ in self._txn_touched})
            self._txn_touched = set()
        dead = self._dead_bytes
        if dead > _COMPACT_FLOOR and 2 * dead > self.wal.size():
            self._compact()

    def rollback(self) -> None:
        """Abort the active transaction, undoing its changes in memory.

        Nothing reaches the log: the transaction never had a frame.
        """
        if self._active_txn is None:
            raise TransactionError("no active transaction")
        for entry in reversed(self._txn_dml):
            op = entry[0]
            if op == "insert":
                _, table, rowid, _row = entry
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
        self._txn_dml = []

    def transaction(self) -> "_Transaction":
        """``with db.transaction():`` — one unit of work, one WAL frame.

        Opens a transaction (commit on success, rollback on error) — or
        joins the one already open, so a caller can fold several
        self-contained writes into a single unit; the outermost block
        decides.  Single statements autocommit through the same scope.
        """
        return _Transaction(self)

    # ------------------------------------------------------------------ DML

    def insert(self, table: str, row: Sequence[Any]) -> int:
        """Insert *row* into *table*, returning the new rowid."""
        tbl = self._table(table)
        with self.transaction():
            rowid = tbl.insert(row)
            stored = tbl.get(rowid)
            self._save_preimage(table, rowid, None)
            self._txn_dml.append(("insert", table, rowid, stored))
            self._index_add(table, rowid, stored)
        return rowid

    def upsert(self, table: str, row: Sequence[Any]) -> int:
        """Replace in place the row holding *row*'s primary key, else
        insert it; returns the rowid either way."""
        tbl = self._table(table)
        pk_pos = tbl.schema.pk_pos
        if pk_pos is None:
            raise DatabaseError(f"table {table!r} has no primary key")
        if len(row) != len(tbl.schema):
            tbl.schema.validate_row(row)  # raises the arity error
        rowid = tbl.lookup_pk(row[pk_pos])
        if rowid is None:
            return self.insert(table, row)
        self._update_rowids(tbl, list(enumerate(row)), [rowid])
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
        with self.transaction():
            for rowid in victims:
                old = tbl.delete(rowid)
                self._save_preimage(table, rowid, old)
                self._txn_dml.append(("delete", table, rowid, old))
                self._index_remove(table, rowid, old)
        return len(victims)

    def _update_rowids(self, tbl: HeapTable,
                       changes: List[Tuple[int, Any]],
                       targets: List[int]) -> int:
        table = tbl.name
        with self.transaction():
            for rowid in targets:
                old = tbl.get(rowid)
                new = list(old)
                for pos, value in changes:
                    new[pos] = value
                self._save_preimage(table, rowid, old)
                tbl.update(rowid, new)
                stored = tbl.get(rowid)
                self._txn_dml.append(("update", table, rowid, old, stored))
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
        """Compact the WAL now: rewrite it as a snapshot of current state.

        Invisible to whoever tails the log (see :meth:`WriteAheadLog
        .compact`): replicas and the read router hold this state already.
        """
        if self._active_txn is not None:
            raise TransactionError("cannot checkpoint inside a transaction")
        self._compact()

    def _compact(self) -> None:
        """Rewrite the log as the image of the committed state: the
        schema, then each table's rows, :data:`_IMAGE_CHUNK` to a frame.
        A frame encoded here carries the newest transaction id there is;
        none is drawn for a frame nobody is shipped."""
        txn = self._last_txn
        frames = [encode_frame(_create_table_record(name, tbl.schema))
                  for name, tbl in self.tables.items()]
        for (table, column), index in self._indexes.items():
            kind = "hash" if isinstance(index, HashIndex) else "sorted"
            frames.append(encode_frame(("create_index", table, column, kind)))
        image = {}
        for name, tbl in self.tables.items():
            all_rowids, all_rows = tbl.image()
            # A BLOB row is a frame of its own: its checksum runs over
            # the BLOB, and only a new version should pay that again.
            chunk = 1 if tbl.schema.blob_positions else _IMAGE_CHUNK
            for at in range(0, len(all_rowids), chunk):
                rowids = all_rowids[at:at + chunk]
                rows = all_rows[at:at + chunk]
                held = self._image.get((name, rowids[0]))
                # Rows are immutable and replaced on update: the same
                # objects under the same rowids encode to the same frame.
                if (held is None or held[0] != rowids
                        or not all(map(is_, held[1], rows))):
                    held = (rowids, rows, encode_frame(("txn", txn, [
                        ("insert", name, rowid, row)
                        for rowid, row in zip(rowids, rows)])))
                image[name, rowids[0]] = held
                frames.append(held[2])
        self._image = image
        self.wal.compact(frames)
        self._dead_bytes = 0
        self.stats["compactions"] += 1

    @classmethod
    def recover(cls, wal_image: bytes, mvcc: bool = False) -> "Database":
        """Rebuild a database from a WAL image (crash recovery).

        Every frame that survives its CRC is a DDL statement or a whole
        committed transaction, so replay is one pass, frame by frame.
        """
        db = cls(wal=WriteAheadLog(), mvcc=mvcc)
        max_txn = 0
        for record in WriteAheadLog(wal_image).records():
            if record[0] == "txn":
                max_txn = max(max_txn, record[1])
            db._replay(record)
        db._last_txn = max_txn
        # The recovered database starts a fresh log reflecting its state.
        db.checkpoint()
        return db

    def _replay(self, record: Tuple[Any, ...]) -> None:
        """Apply one logged frame to this database, bypassing its own
        transaction machinery (recovery and WAL-shipped replicas).

        Tolerant of a frame that does not fit (a log image comes from
        outside): existing tables/indexes are kept, a re-inserted rowid
        is replaced, DML on a missing table or rowid is dropped.
        """
        op = record[0]
        if op == "txn":
            for entry in record[2]:
                self._replay_dml(*entry)
        elif op == "create_table":
            _, name, cols = record
            if name not in self.tables:
                self.create_table(name, [
                    Column(n, t, nullable=bool(nl), primary_key=bool(pk))
                    for n, t, nl, pk in cols])
        elif op == "drop_table":
            if record[1] in self.tables:
                self.drop_table(record[1])
        elif op == "create_index":
            _, table, column, kind = record
            if (table, column) not in self._indexes and table in self.tables:
                self.create_index(table, column, kind)

    def _replay_dml(self, op: str, table: str, rowid: int,
                    image: Sequence[Any], new: Sequence[Any] = ()) -> None:
        # One frame entry: *image* is the row inserted, or the one a
        # delete/update found; *new* what an update left.
        tbl = self.tables.get(table)
        if tbl is None:
            return
        present = rowid in tbl._rows
        if op == "insert":
            if present:
                self._index_remove(table, rowid, tbl.delete(rowid))
            row = tbl.schema.validate_row(image)
            tbl.restore(rowid, row)
            self._index_add(table, rowid, row)
        elif present and op == "delete":
            self._index_remove(table, rowid, tbl.delete(rowid))
        elif present and op == "update":
            self._index_remove(table, rowid, tbl.update(rowid, new))
            self._index_add(table, rowid, tbl.get(rowid))

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

    def _prune_versions(self, tables: Optional[Set[str]] = None) -> None:
        """Drop version history no open snapshot can still need (in
        *tables*; everywhere when not given)."""
        if not self.mvcc:
            return
        watermark = min((s.watermark for s in self._snapshots),
                        default=self._commit_seq)
        for name in self.tables if tables is None else tables:
            tbl = self.tables.get(name)
            if tbl is not None and tbl.has_versions():
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
        for pos, index in self._table_indexes.get(table, ()):
            index.add(row[pos], rowid)

    def _index_remove(self, table: str, rowid: int, row: Tuple[Any, ...]) -> None:
        for pos, index in self._table_indexes.get(table, ()):
            index.remove(row[pos], rowid)

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


class _Transaction:
    """The scope :meth:`Database.transaction` hands out."""

    __slots__ = ("_db", "_owner")

    def __init__(self, db: Database):
        self._db = db
        self._owner = False

    def __enter__(self) -> Database:
        if self._db._active_txn is None:
            self._db.begin()
            self._owner = True
        return self._db

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if self._owner:
            if exc_type is None:
                self._db.commit()
            else:
                self._db.rollback()
        return False
