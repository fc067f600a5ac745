"""WAL-shipping read replicas and the bounded-staleness read router.

A :class:`ReadReplica` tails the primary's write-ahead log through the
record tap (:attr:`~repro.db.wal.WriteAheadLog.taps`) and applies the
logical record stream to its own :class:`~repro.db.engine.Database`
after a modeled propagation/apply *lag*.  Application is **lazy**: the
replica buffers shipped records with their ship timestamps and replays
everything that has become due when a reader calls :meth:`catch_up`.
That keeps replication pure bookkeeping — it schedules no simulation
events, so an attached-but-unread replica can never perturb a faithful
timeline.

The :class:`ReadRouter` decides, per read, whether a replica may serve
a table.  The guard is conservative: a replica is eligible only when
the table's newest primary write is at least one lag interval old —
i.e. when every write to that table has provably been applied.  Two
properties fall out by construction:

* **bounded staleness** — nothing a replica serves is ever older than
  the modeled lag (a younger write forces the read back to the
  primary);
* **read-your-writes** — an uploader that just wrote a table reads it
  from the primary until the replica has caught up, for *any*
  principal (strictly stronger than per-principal tracking).

Transactions replicate atomically because the log frames them that
way: the primary ships one record per committed transaction (and
nothing for a rolled-back one), so a replica applies frame by frame
through the same :meth:`Database._replay` recovery uses.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from repro.db.engine import Database
from repro.errors import DatabaseError

__all__ = ["ReadReplica", "ReadRouter"]


class ReadReplica:
    """A lagged, WAL-fed, read-only copy of a primary database."""

    def __init__(self, sim, primary: Database, lag: float = 0.5,
                 name: str = "db-replica-1"):
        if lag < 0:
            raise DatabaseError(f"replica lag must be >= 0, got {lag}")
        self.sim = sim
        self.primary = primary
        self.lag = float(lag)
        self.name = name
        #: The replica's own database (never written by callers).
        self.db = Database()
        # Shipped-but-not-yet-applied records: (ship_ts, record).
        self._pending: Deque[Tuple[float, Tuple[Any, ...]]] = deque()
        self.records_applied = 0
        self.txns_applied = 0
        #: Ship timestamp of the newest applied record.
        self.applied_ts = 0.0
        self._bootstrap()
        primary.wal.taps.append(self._tap)

    # -- shipping ----------------------------------------------------------

    def _bootstrap(self) -> None:
        """Initial sync: replay the primary's current WAL image."""
        if self.primary._active_txn is not None:
            raise DatabaseError(
                f"{self.name}: cannot attach mid-transaction")
        image = self.primary.wal.snapshot()
        if image:
            self.db = Database.recover(image)

    def _tap(self, record: Tuple[Any, ...]) -> None:
        self._pending.append((self.sim.now, record))

    def backlog(self) -> int:
        """Shipped records not yet applied."""
        return len(self._pending)

    def catch_up(self, now: Optional[float] = None) -> int:
        """Apply every shipped record whose lag has elapsed by *now*."""
        now = self.sim.now if now is None else now
        applied = 0
        while self._pending and self._pending[0][0] + self.lag <= now:
            ts, record = self._pending.popleft()
            self.db._replay(record)
            self.applied_ts = ts
            self.records_applied += 1
            if record[0] == "txn":
                self.txns_applied += 1
            applied += 1
        return applied

    def lag_behind(self, now: Optional[float] = None) -> float:
        """Seconds of ship-time not yet applied (< lag by construction)."""
        now = self.sim.now if now is None else now
        self.catch_up(now)
        if not self._pending:
            return 0.0
        return max(0.0, now - self._pending[0][0])

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (f"<ReadReplica {self.name} lag={self.lag} "
                f"backlog={self.backlog()}>")


class ReadRouter:
    """Routes read-only table access to caught-up replicas.

    ``reader(table)`` hands back a database to read *table* from: a
    replica when the freshness guard holds, the primary otherwise.
    The router learns write recency from its own WAL tap, so it needs
    no cooperation from writers.
    """

    def __init__(self, sim, primary: Database,
                 replicas: Tuple[ReadReplica, ...] = (),
                 lag: float = 0.5):
        self.sim = sim
        self.primary = primary
        self.replicas = list(replicas)
        self.lag = float(lag)
        # table -> sim time of its newest primary write (DML or DDL),
        # stamped when the frame lands — the commit instant, which is
        # what a replica's lag counts from.
        self._last_write: Dict[str, float] = {}
        self._rr = 0
        self.replica_reads = 0
        self.primary_reads = 0
        primary.wal.taps.append(self._observe)

    def _observe(self, record: Tuple[Any, ...]) -> None:
        now = self.sim.now
        if record[0] == "txn":
            for entry in record[2]:
                self._last_write[entry[1]] = now
        else:  # DDL: create_table / drop_table / create_index
            self._last_write[record[1]] = now

    def fresh_for(self, table: str, now: Optional[float] = None) -> bool:
        """Has every primary write to *table* had time to replicate?"""
        now = self.sim.now if now is None else now
        last = self._last_write.get(table)
        return last is None or last + self.lag <= now

    def reader(self, table: str) -> Database:
        """A database suitable for a read-only op on *table* right now.

        While the primary has a transaction open only the primary will
        do: the unit's own writes are stamped when it commits, so until
        then no replica can be proven to hold what the caller wrote.
        """
        now = self.sim.now
        if (self.replicas and self.primary._active_txn is None
                and self.fresh_for(table, now)):
            replica = self.replicas[self._rr % len(self.replicas)]
            self._rr += 1
            replica.catch_up(now)
            if table in replica.db.tables:
                self.replica_reads += 1
                self._note_replica_read(table, replica, now)
                return replica.db
        self.primary_reads += 1
        return self.primary

    def _note_replica_read(self, table: str, replica: ReadReplica,
                           now: float) -> None:
        # Lazy import: the db layer must not hard-depend on telemetry.
        from repro.telemetry.events import bus
        from repro.telemetry.gauges import gauges
        behind = replica.lag_behind(now)
        bus(self.sim).emit("db.replica.read", layer="db", table=table,
                           target=replica.name, behind=behind,
                           lag_bound=self.lag)
        gauges(self.sim).gauge("db.replica_lag", unit="s").set(behind)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (f"<ReadRouter replicas={len(self.replicas)} "
                f"replica_reads={self.replica_reads} "
                f"primary_reads={self.primary_reads}>")
