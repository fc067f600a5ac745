"""DbManager: the paper's ``dataIO`` package.

The original stored uploaded executables in MySQL through a JDBC
connection.  This facade stores them in the embedded engine as
zlib-compressed BLOBs — the compression is *real* (real bytes in, real
bytes out) — and charges the simulated host for the CPU and disk work of
each operation, which is what produces the DB-related CPU peaks in the
paper's Figure 6 ("loading and decompressing the file from the
database") and the second disk-write peak in Figure 8.
"""

from __future__ import annotations

import hashlib
import zlib
from collections import OrderedDict
from functools import cached_property
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.db.engine import Database
from repro.db.table import Column
from repro.errors import OnServeError, RecordNotFound, TransactionError
from repro.faults.injector import get_injector
from repro.hardware.host import Host
from repro.simkernel.events import Event
from repro.simkernel.process import Process
from repro.units import MB

__all__ = ["DbCostModel", "DbManager", "DbTierConfig", "StoredExecutable"]


class DbTierConfig:
    """How the DB tier behaves under concurrent load (all off by default).

    The defaults reproduce the seed timeline byte-for-byte: statements
    apply synchronously in one simulation frame and fetches materialize
    the whole BLOB.  Scenarios opt in to the scaled tier feature by
    feature.  Every read is a primary read.
    """

    def __init__(self,
                 mvcc: bool = False,
                 serialize: bool = False,
                 chunk_bytes: int = 0):
        #: Readers skip the connection lock: every engine transaction
        #: commits in the frame it opened, so a read is a committed read.
        self.mvcc = bool(mvcc)
        #: Model connection contention: writers hold a FIFO lock (and the
        #: transaction) across the store's CPU/disk time; non-MVCC readers
        #: must queue behind it — the measured upload-storm spike.
        self.serialize = bool(serialize)
        #: Fetch BLOBs in fixed chunks of this size (0 = whole-BLOB).
        self.chunk_bytes = int(chunk_bytes)
        if self.chunk_bytes < 0:
            raise OnServeError(f"chunk_bytes must be >= 0, got {chunk_bytes}")


class DbCostModel:
    """Per-operation simulated costs (all tunable per experiment).

    CPU costs scale with *uncompressed* payload size; disk traffic uses
    the actual compressed size.
    """

    def __init__(self,
                 compress_cpu_per_mb: float = 0.04,
                 decompress_cpu_per_mb: float = 0.02,
                 statement_cpu: float = 0.01,
                 commit_disk_overhead: float = 512.0):
        self.compress_cpu_per_mb = compress_cpu_per_mb
        self.decompress_cpu_per_mb = decompress_cpu_per_mb
        #: Fixed CPU charged per SQL statement (parse/plan/execute).
        self.statement_cpu = statement_cpu
        #: Extra bytes written per commit (WAL bookkeeping).
        self.commit_disk_overhead = commit_disk_overhead


class StoredExecutable:
    """Metadata + payload returned by :meth:`DbManager.load_executable`."""

    def __init__(self, name: str, payload: bytes, description: str,
                 params_spec: str, compressed_size: int, stored_at: float):
        self.name = name
        self.payload = payload
        self.description = description
        self.params_spec = params_spec
        self.size = len(payload)
        self.compressed_size = compressed_size
        self.stored_at = stored_at

    @cached_property
    def digest(self) -> str:
        """SHA-256 of the payload, hashed on first use: the upload cache
        and the staging flight key of every invocation sharing this load
        read the same one."""
        return hashlib.sha256(self.payload).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<StoredExecutable {self.name!r} {self.size}B>"


#: The unit of the per-MB CPU costs, evaluated once.
_MB = MB(1)

#: Bytes the inflate memo may pin (compressed + decompressed).  A
#: constant, not a knob: it bounds host memory only, and no simulated
#: number, event or stored byte depends on what the memo holds.
_MEMO_BUDGET = 32 * 1024 * 1024


class _InflateMemo:
    """The newest stored or fetched version of each BLOB (host side only).

    The payload and its digest are pure functions of the compressed
    bytes, so a version is held from the frame that stores it — as the
    very ``bytes`` object the store was handed — or, if this manager
    did not store it (a recovered manager, an evicted entry), inflated
    once, on its first fetch.  Every later fetch of it is handed the
    *same* :class:`StoredExecutable`: the payload a site stages is the
    uploader's object, never a second copy, and the digest is hashed
    once, when someone first asks for it (or set by the publish that
    already hashed it).

    An entry sits under the row's name and matches only the identity of
    the row's compressed ``data`` object, which it pins: a replaced,
    deleted or crash-recovered row holds a *different* object and never
    matches.  Storing a name replaces its entry, deleting it drops the
    entry, and a fetch of another version replaces it: one version per
    name at most, and not one the store has replaced since.
    Least-recently-used names fall out once the pinned bytes pass
    :data:`_MEMO_BUDGET`; a version that alone exceeds it is never held.
    """

    def __init__(self) -> None:
        #: name -> (data, the version's executable, bytes pinned), least
        #: recently stored or fetched first.
        self._entries: OrderedDict[
            str, Tuple[bytes, StoredExecutable, int]] = OrderedDict()
        self._pinned = 0

    def held(self, record: Dict[str, Any]) -> Optional[StoredExecutable]:
        """The executable remembered for the row's ``data`` object, if
        any."""
        entry = self._entries.get(record["name"])
        if entry is not None and entry[0] is record["data"]:
            return entry[1]
        return None

    def stored(self, record: Dict[str, Any]) -> StoredExecutable:
        """The row as a :class:`StoredExecutable`: remembered for its
        ``data`` object, else built from *record* and the inflated
        payload.  Host work only; the callers have already charged every
        simulated step of the fetch."""
        exe = self.held(record)
        if exe is not None:
            self._entries.move_to_end(exe.name)
            return exe
        data = record["data"]
        exe = StoredExecutable(
            name=record["name"],
            payload=zlib.decompress(data),
            description=record["description"],
            params_spec=record["params_spec"],
            compressed_size=record["compressed_size"],
            stored_at=record["stored_at"],
        )
        self.remember(data, exe)
        return exe

    def remember(self, data: bytes, exe: StoredExecutable) -> None:
        """Hold *exe* as the version whose compressed bytes are *data*,
        in place of whatever its name held, unless it alone is over
        budget."""
        self.drop(exe.name)
        pinned = len(data) + exe.size
        if pinned <= _MEMO_BUDGET:
            entries = self._entries
            entries[exe.name] = (data, exe, pinned)
            self._pinned += pinned
            while self._pinned > _MEMO_BUDGET:
                self._pinned -= entries.popitem(last=False)[1][2]

    def drop(self, name: str) -> None:
        """Forget what is held under *name*."""
        entry = self._entries.pop(name, None)
        if entry is not None:
            self._pinned -= entry[2]


_SCHEMA = [
    Column("name", "TEXT", primary_key=True),
    Column("description", "TEXT"),
    Column("params_spec", "TEXT"),
    Column("data", "BLOB", nullable=False),
    Column("size", "INT", nullable=False),
    Column("compressed_size", "INT", nullable=False),
    Column("stored_at", "REAL", nullable=False),
]


class DbManager:
    """Executable storage on top of the embedded database.

    The operations consume simulated host time: :meth:`load` is a
    generator its caller drives with ``yield from``; the others, and
    :meth:`load_executable`, return *simulation processes* (``yield``
    the result from a process).  The underlying data operations are
    real.
    """

    TABLE = "executables"

    #: Always None: every read is a primary read.  Kept only because the
    #: benchmark harness (``benchmarks/e2e/passes.py``) passes it to
    #: ``NotifyQueue(read_router=)``; ROADMAP item 1 removes it.
    read_router = None

    def __init__(self, host: Host, db: Optional[Database] = None,
                 costs: Optional[DbCostModel] = None,
                 tier: Optional[DbTierConfig] = None):
        self.host = host
        self.sim = host.sim
        self.tier = tier or DbTierConfig()
        self.db = db if db is not None else Database()
        self.costs = costs or DbCostModel()
        if self.TABLE not in self.db.tables:
            self.db.create_table(self.TABLE, _SCHEMA)
        # Connection lock (db_serialize): FIFO handoff, pure python —
        # the wait event exists only when there is actual contention.
        self._lock_held = False
        self._lock_waiters: List[Event] = []
        self._snap_gauge = None
        self._chunk_gauge = None
        self._memo = _InflateMemo()
        # Observability plane: WAL pressure as a gauge + append events.
        # The log itself stays telemetry-free (it has no simulator); the
        # manager, which owns the clock, feeds the plane via the log's
        # observer hook.  Pure recording — no simulation events.
        from repro.telemetry.events import bus
        from repro.telemetry.gauges import gauges
        wal_bus = self._bus = bus(self.sim)
        wal_gauge = gauges(self.sim).gauge("db.wal_bytes", unit="B")
        wal_gauge.set(self.db.wal.size())

        def _on_wal_change(delta: int, total: int) -> None:
            wal_gauge.set(total)
            if delta > 0:
                wal_bus.emit("wal.append", layer="db", nbytes=delta,
                             total=total)

        self.db.wal.observer = _on_wal_change

    # -- connection lock (db_serialize) -------------------------------------

    def _acquire_conn(self) -> Generator[Event, None, float]:
        """Take the FIFO connection lock; returns the seconds waited.

        Uncontended acquisition is frame-synchronous (no event is
        created), so an enabled-but-idle serialized tier cannot perturb
        the timeline.
        """
        t0 = self.sim.now
        if self._lock_held:
            waiter = self.sim.event(name="db:lock-wait")
            self._lock_waiters.append(waiter)
            try:
                yield waiter
            except BaseException:
                # Unwound in the queue: leave it, or pass on the lock
                # if it had already been handed over.
                if waiter.triggered:
                    self._release_conn()
                else:
                    self._lock_waiters.remove(waiter)
                raise
        self._lock_held = True
        waited = self.sim.now - t0
        if waited > 0:
            self._bus.emit("db.lock.wait", layer="db", waited=waited)
        return waited

    def _release_conn(self) -> None:
        if self._lock_waiters:
            # Direct handoff: the lock stays held for the next waiter,
            # so nobody can barge in between release and resume.
            self._lock_waiters.pop(0).succeed()
        else:
            self._lock_held = False

    # -- telemetry ----------------------------------------------------------

    def _set_chunk_stream(self, resident: float) -> None:
        from repro.telemetry.gauges import gauges
        if self._chunk_gauge is None:
            self._chunk_gauge = gauges(self.sim).gauge("db.chunk_stream",
                                                       unit="B")
        self._chunk_gauge.set(resident)

    def _emit_fetch(self, name: str, mode: str, size: int, chunks: int,
                    resident_peak: float, waited: float) -> None:
        self._bus.emit("db.fetch", layer="db", name=name, mode=mode,
                       nbytes=size, chunks=chunks,
                       resident_peak=resident_peak, waited=waited)

    # -- executables --------------------------------------------------------

    def store_executable(self, name: str, payload: bytes,
                         description: str = "",
                         params_spec: str = "",
                         on_commit: Optional[Callable[[], None]] = None
                         ) -> Process:
        """Compress and store *payload* under *name* (a simulation process).

        The returned process-event's value is the stored version as a
        :class:`StoredExecutable` whose payload is *payload* itself (a
        ``bytes`` object is kept as it is; any other buffer is copied
        once, so a later mutation of it cannot reach a fetch).  Storing
        an existing name replaces the old row (upsert), which is what
        lets users re-upload a fixed executable.  *on_commit* runs
        inside the storing transaction: what it writes commits in the
        same WAL frame as the row.
        """
        if type(payload) is not bytes:
            payload = bytes(payload)

        def op() -> Generator[Event, None, StoredExecutable]:
            compressed = zlib.compress(payload, level=6)
            # Contended tier (``serialize``): the writer occupies the
            # single connection across the operation's CPU and disk
            # time, the way the original's single JDBC connection did.
            # Non-MVCC readers queue on the lock — that is the spike
            # dbscale measures; MVCC readers skip it entirely.
            locked = self.tier.serialize
            if locked:
                yield from self._acquire_conn()
            try:
                # CPU: compression cost scales with the uncompressed size.
                yield self.host.compute(
                    self.costs.compress_cpu_per_mb * len(payload) / _MB
                    + self.costs.statement_cpu,
                    tag="db",
                )
                injector = get_injector(self.sim)
                if injector is not None:
                    # A stalled WAL write blocks the commit for a while; a
                    # transaction fault aborts it before any row changes.
                    stall = injector.fire("db.stall")
                    if stall is not None and stall.duration > 0:
                        yield self.sim.timeout(stall.duration,
                                               name="fault:db-stall")
                    if injector.fire("db.txn_error"):
                        raise TransactionError(
                            f"storing {name!r}: commit aborted "
                            f"(transient WAL write failure)")
                # Disk: the engine's insert lands in the WAL + heap.
                yield self.host.disk_write(
                    len(compressed) + self.costs.commit_disk_overhead)
                # The engine transaction itself is frame-synchronous
                # (begin and commit in one frame, after the I/O): other
                # subsystems' bookkeeping writes (staging marks, leases,
                # notify rows) run in their own frames and must never
                # find a foreign transaction left open across a yield.
                with self.db.transaction():
                    self.db.delete_eq(self.TABLE, "name", name)
                    self.db.insert(self.TABLE, [
                        name, description, params_spec, compressed,
                        len(payload), len(compressed), self.sim.now,
                    ])
                    if on_commit is not None:
                        on_commit()
                # The row's ``data`` is *compressed* itself, so the memo
                # matches it until the row is replaced.
                exe = StoredExecutable(name, payload, description,
                                       params_spec, len(compressed),
                                       self.sim.now)
                self._memo.remember(compressed, exe)
            finally:
                if locked:
                    self._release_conn()
            return exe

        return self.sim.process(op(), name=f"db-store:{name}")

    def load_executable(self, name: str,
                        on_chunk: Optional[Callable[[float], Any]] = None
                        ) -> Process:
        """:meth:`load` as a simulation process of its own."""
        return self.sim.process(self.load(name, on_chunk),
                                name=f"db-load:{name}")

    def _committed_read(self, name: str) -> Dict[str, Any]:
        """The lock-free MVCC read of *name*'s row, counted.

        It is a committed read because no engine transaction stays open
        across a yield; one found open raises rather than be read past.
        """
        if self.db._active_txn is not None:
            raise TransactionError(
                f"MVCC read of {name!r} inside an open engine "
                f"transaction would see uncommitted rows")
        stats = self.db.stats
        stats["snapshot_reads"] += 1
        record = self.db.get_by_pk(self.TABLE, name)
        if self._snap_gauge is None:
            from repro.telemetry.gauges import gauges
            self._snap_gauge = gauges(self.sim).gauge("db.snapshot_reads")
        self._snap_gauge.set(stats["snapshot_reads"])
        return record

    def load(self, name: str,
             on_chunk: Optional[Callable[[float], Any]] = None
             ) -> Generator[Event, None, StoredExecutable]:
        """Load and decompress the executable *name*.

        A generator the caller drives with ``yield from``, so it runs in
        the caller's process: an interrupt of that process unwinds it,
        giving up its place in the connection queue (or the lock) and
        its resident chunk bytes.  The value is a
        :class:`StoredExecutable`; it fails with
        :class:`~repro.errors.RecordNotFound` for unknown names.

        Tier behaviour: with MVCC the row lookup skips the connection
        lock and reads committed state — no engine transaction stays
        open across a yield, and a read that finds one open raises
        :class:`~repro.errors.TransactionError`; with a serialized
        non-MVCC tier the read queues on the connection lock behind
        in-flight stores.  With ``chunk_bytes > 0`` the payload
        streams in fixed chunks — *on_chunk*, when given, is called per
        chunk with its byte count and must return a process generator
        (the consumer); fetch of chunk ``i+1`` is pipelined with the
        consumer of chunk ``i``, so at most two chunks are resident.
        """
        waited = 0.0
        locked = False
        if self.tier.serialize and not self.tier.mvcc:
            waited = yield from self._acquire_conn()
            locked = True
        try:
            yield self.host.compute(self.costs.statement_cpu, tag="db")
            record = (self._committed_read(name) if self.tier.mvcc
                      else self.db.get_by_pk(self.TABLE, name))
            if self.tier.chunk_bytes > 0:
                # The connection is occupied for the row lookup only;
                # the chunk loop streams from the local spool.
                if locked:
                    self._release_conn()
                    locked = False
                return (yield from self._fetch_chunked(
                    name, record, on_chunk, waited))
            # Disk: the compressed blob travels over the connection.
            yield self.host.disk_read(record["compressed_size"])
            if locked:
                # The blob is in the driver's buffer; decompression is
                # local CPU and does not occupy the connection.
                self._release_conn()
                locked = False
            # CPU: decompression scales with the uncompressed size — this
            # is the paper's "loading and decompressing" CPU peak.
            yield self.host.compute(
                self.costs.decompress_cpu_per_mb * record["size"] / _MB,
                tag="db",
            )
            exe = self._memo.stored(record)
            self._emit_fetch(name, "whole", record["size"], 1,
                             record["size"], waited)
            return exe
        finally:
            if locked:
                self._release_conn()

    def _fetch_chunked(self, name: str, record: Dict[str, Any],
                       on_chunk: Optional[Callable[[float], Any]],
                       waited: float
                       ) -> Generator[Event, None, StoredExecutable]:
        """Stream the BLOB in fixed chunks with double-buffering.

        Simulated residency is charged per chunk (allocate -> consume ->
        release), so the peak is at most two chunk sizes regardless of
        BLOB size; the real payload bytes are still returned whole,
        because they are the data plane of the simulation — inflated
        once, after the last simulated chunk (chunking is a model of
        residency, not of how the host inflates).
        """
        size = int(record["size"])
        csize = record["compressed_size"]
        chunk = self.tier.chunk_bytes
        n = max(1, (size + chunk - 1) // chunk) if size > 0 else 1
        resident = 0.0
        peak = 0.0
        consumer: Optional[Process] = None
        prev_bytes = 0.0
        try:
            for i in range(n):
                this_bytes = (float(min(chunk, size - i * chunk))
                              if size else 0.0)
                self.host.allocate_memory(this_bytes)
                resident += this_bytes
                peak = max(peak, resident)
                self._set_chunk_stream(resident)
                yield self.host.disk_read(csize / n)
                yield self.host.compute(
                    self.costs.decompress_cpu_per_mb * this_bytes / _MB,
                    tag="db",
                )
                if on_chunk is not None:
                    if consumer is not None:
                        # Pipelined: we fetched chunk i while the consumer
                        # still worked on chunk i-1; join before recycling.
                        yield consumer
                        self.host.release_memory(prev_bytes)
                        resident -= prev_bytes
                        self._set_chunk_stream(resident)
                    consumer = self.sim.process(on_chunk(this_bytes),
                                                name=f"db-chunk:{name}:{i}")
                elif i > 0:
                    self.host.release_memory(prev_bytes)
                    resident -= prev_bytes
                    self._set_chunk_stream(resident)
                prev_bytes = this_bytes
            if consumer is not None:
                yield consumer
        except BaseException:
            # Unwound mid-stream: every chunk still resident goes.
            self.host.release_memory(resident)
            self._set_chunk_stream(0.0)
            raise
        self.host.release_memory(prev_bytes)
        resident -= prev_bytes
        self._set_chunk_stream(resident)
        exe = self._memo.stored(record)
        self._emit_fetch(name, "chunked", size, n, peak, waited)
        return exe

    def delete_executable(self, name: str) -> Process:
        """Remove *name*; the process-event's value is True if it existed."""

        def op() -> Generator[Event, None, bool]:
            yield self.host.compute(self.costs.statement_cpu, tag="db")
            count = self.db.delete_eq(self.TABLE, "name", name)
            self._memo.drop(name)
            yield self.host.disk_write(self.costs.commit_disk_overhead)
            return count > 0

        return self.sim.process(op(), name=f"db-delete:{name}")

    # -- crash recovery ------------------------------------------------------

    def recover_from_crash(self) -> "DbManager":
        """Rebuild a fresh manager from the WAL image.

        Models an appliance restart after a crash: everything committed
        survives, in-flight transactions are discarded.  The simulated
        recovery cost is one disk read of the log plus replay CPU.
        """
        image = self.db.wal.snapshot()
        recovered = Database.recover(image)
        return DbManager(self.host, db=recovered, costs=self.costs,
                         tier=self.tier)

    # -- synchronous metadata queries (no payload, negligible cost) ----------

    def list_executables(self) -> List[Dict[str, Any]]:
        """Metadata of all stored executables (no payload bytes)."""
        rows = self.db.select(self.TABLE)
        return [{k: v for k, v in row.items() if k != "data"} for row in rows]

    def has_executable(self, name: str) -> bool:
        try:
            self.db.get_by_pk(self.TABLE, name)
            return True
        except RecordNotFound:
            return False

    def executable_digest(self, name: str) -> str:
        """SHA-256 of the stored payload, from the primary's row (host
        work only: no simulated cost): a held version's own digest, or
        the hash of the inflated row."""
        record = self.db.get_by_pk(self.TABLE, name)
        exe = self._memo.held(record)
        if exe is not None:
            return exe.digest
        return hashlib.sha256(zlib.decompress(record["data"])).hexdigest()

    def executable_sizes(self, name: str) -> Dict[str, int]:
        """(uncompressed, compressed) sizes without loading the payload."""
        record = self.db.get_by_pk(self.TABLE, name)
        return {"size": record["size"],
                "compressed_size": record["compressed_size"]}

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<DbManager host={self.host.name!r} executables={self.db.count(self.TABLE)}>"
