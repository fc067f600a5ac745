"""A WAL-shipping copy of a database: the log's replay oracle.

A :class:`ReadReplica` tails the primary's write-ahead log through the
record tap (:attr:`~repro.db.wal.WriteAheadLog.taps`) and applies the
logical record stream to its own :class:`~repro.db.engine.Database`
after a modeled propagation/apply *lag*.  Application is **lazy**: the
replica buffers shipped records with their ship timestamps and replays
everything that has become due when a reader calls :meth:`catch_up`.
That keeps replication pure bookkeeping — it schedules no simulation
events, so an attached-but-unread replica can never perturb a faithful
timeline.

Transactions replicate atomically because the log frames them that
way: the primary ships one record per committed transaction (and
nothing for a rolled-back one), so a replica applies frame by frame
through the same :meth:`Database._replay` recovery uses.

No read is served from a replica: every DB read in ``src/`` is a
primary read.  The class is a harness pin: the benchmark harness's
``db.replica_catch_up_us_per_record`` driver (``benchmarks/e2e/
drivers.py``) builds one, and ROADMAP item 1 removes it from ``src/``
(the property tests keep it as their WAL-replay oracle).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional, Tuple

from repro.db.engine import Database
from repro.errors import DatabaseError

__all__ = ["ReadReplica"]


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

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (f"<ReadReplica {self.name} lag={self.lag} "
                f"backlog={self.backlog()}>")
