"""ServiceStateStore: service/deployment state externalized to the DB tier.

Before the appliance sharded, :class:`~repro.core.onserve.OnServe` kept
everything that describes a deployed service in process-local dicts —
``services``, ``runtimes``, staged-copy digests.  That made the
appliance stateful: only the process that generated a service could
serve it.  The fabric refactor moves the *source of truth* into tables
of the shared :mod:`repro.db` engine, so that N stateless replicas over
one DB tier all see the same state and a service deployed through
replica A is servable by replica B.

The agent session is not store state: it is cached beside the agent
that minted it (:class:`~repro.core.session.SessionCache`); nor is a
seed's in-flight marker, held in memory beside its watchers
(DESIGN.md §10), nor a replica's membership lease, held on the
router's record of that replica (DESIGN.md §13).

Tables
------
``service_records``
    One row per generated service: naming, public endpoint, UDDI keys,
    archive size, creation time, the generating replica (placement
    provenance; UDDI remains the *placement* source of truth clients
    resolve through) and the digest of the bytes it runs.  How often a
    service ran is not kept here: the ``invocations`` history table
    holds one row per run (:meth:`OnServe.invocation_count`).
``staged_copies``
    Which (site, path) on the grid holds which payload digest.  A copy
    staged by any replica is on the site for every replica, so this is
    naturally fabric-global state.  Read and written only under
    ``OnServeConfig.stage_once`` (DESIGN.md §10).
``invocation_dedup``
    Idempotency records keyed by request: no ``src/`` caller writes or
    reads them; the table and its methods stay for the benchmark
    harness's store driver (DESIGN.md §15).

Purity contract
---------------
Every store operation is pure bookkeeping: rows change, the WAL grows,
telemetry may observe — but **no simulation events are created and no
simulated time passes**.  Metadata rows are tiny and ride along the
disk/CPU charges the surrounding operations already pay (the same rule
``OnServe.record_invocation`` follows), which is what keeps the
``replicas=1`` fabric byte-identical to the pre-fabric appliance.

The store is the one place a service change is announced: each replica
and each client cache subscribes ``on_removed`` / ``on_republished``
listeners, and the replica that performs an undeploy or replacement
upload fires them (minus itself), so every other replica drops its
write-through cache and every client cache its bindings — once each
(DESIGN.md §9).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.datastructures import GeneratedService
from repro.db.engine import Database
from repro.db.table import Column
from repro.errors import RecordNotFound

__all__ = ["ServiceStateStore"]

SERVICE_TABLE = "service_records"
STAGED_TABLE = "staged_copies"
DEDUP_TABLE = "invocation_dedup"

_SERVICE_SCHEMA = [
    Column("service_name", "TEXT", primary_key=True),
    Column("executable_name", "TEXT", nullable=False),
    Column("endpoint", "TEXT", nullable=False),
    Column("wsdl_location", "TEXT"),
    Column("uddi_service_key", "TEXT"),
    Column("uddi_binding_key", "TEXT"),
    Column("archive_size", "INT", nullable=False),
    Column("created_at", "REAL", nullable=False),
    Column("replica", "TEXT", nullable=False),
    Column("digest", "TEXT"),
]

_STAGED_SCHEMA = [
    Column("key", "TEXT", primary_key=True),
    Column("site", "TEXT", nullable=False),
    Column("path", "TEXT", nullable=False),
    Column("digest", "TEXT", nullable=False),
    Column("replica", "TEXT", nullable=False),
]

_DEDUP_SCHEMA = [
    Column("key", "TEXT", primary_key=True),
    Column("replica", "TEXT", nullable=False),
    Column("result", "TEXT", nullable=False),
    Column("completed_at", "REAL", nullable=False),
]


class ServiceStateStore:
    """Replicated service state over the shared database engine."""

    def __init__(self, db: Database):
        self.db = db
        for table, schema in ((SERVICE_TABLE, _SERVICE_SCHEMA),
                              (STAGED_TABLE, _STAGED_SCHEMA),
                              (DEDUP_TABLE, _DEDUP_SCHEMA)):
            if table not in db.tables:
                db.create_table(table, schema)
        #: Service-change listeners, keyed by subscriber (a replica's
        #: host name, or a client cache's key).
        self._removed: Dict[str, Callable[[str], None]] = {}
        self._republished: Dict[str, Callable[[str], None]] = {}
        #: Seeds in flight, one marker per staged path (digest, site
        #: being filled, replica, seed id); each seed drops its own.
        self._seeds: Dict[str, Dict[str, Any]] = {}
        #: Seed watchers per staged path, each told once — with the span
        #: of the stage that just finished, if any — when the path's
        #: marker next moves on, lands or goes.
        self._seed_watchers: Dict[str, List[Callable[[Any], None]]] = {}
        self._seed_seq = 0
        #: Shared monotonic counters (lazily seeded from history so an
        #: appliance redeployed over recovered data resumes numbering).
        self._invocation_counter: Optional[int] = None
        self._tag_seq: Optional[int] = None
        #: Dedup keys recorded twice (:meth:`record_dedup`).
        self.dedup_duplicates = 0

    # -- the change feed (cache invalidation fan-out) -------------------------

    def subscribe(self, key: str,
                  on_removed: Callable[[str], None],
                  on_republished: Callable[[str], None]) -> None:
        """Register (or replace) subscriber *key*'s invalidation hooks.

        ``on_removed(service_name)`` fires when a replica other than
        *key* removes a record (undeploy); ``on_republished(
        service_name)`` when one refreshes a record in place
        (replacement upload).  Replicas subscribe under their host
        name; any other key hears of every change.
        """
        self._removed[key] = on_removed
        self._republished[key] = on_republished

    def _fan_out(self, listeners: Dict[str, Callable[[str], None]],
                 service_name: str, origin: Optional[str]) -> None:
        for key in sorted(listeners):
            if key != origin:
                listeners[key](service_name)

    # -- service records ------------------------------------------------------

    def put_record(self, service: GeneratedService, replica: str) -> None:
        """Insert or replace the record for *service* (write-through)."""
        self.db.upsert(SERVICE_TABLE, [
            service.service_name, service.executable_name,
            service.endpoint, service.wsdl_location,
            service.uddi_service_key, service.uddi_binding_key,
            service.archive_size, service.created_at,
            replica, service.digest,
        ])

    def get_record(self, service_name: str) -> Optional[Dict[str, Any]]:
        try:
            return self.db.get_by_pk(SERVICE_TABLE, service_name)
        except RecordNotFound:
            return None

    def remove_record(self, service_name: str,
                      origin: Optional[str] = None
                      ) -> Optional[Dict[str, Any]]:
        """Delete a record; returns the old row (None if absent).

        When a row was actually removed, every subscriber's
        ``on_removed`` hook fires (the origin's excepted) so replicas
        and client caches drop the service everywhere.
        """
        row = self.get_record(service_name)
        if row is None:
            return None
        self.db.delete_eq(SERVICE_TABLE, "service_name", service_name)
        self._fan_out(self._removed, service_name, origin)
        return row

    def record_republished(self, service_name: str,
                           origin: Optional[str] = None) -> None:
        """Tell every other subscriber a service was refreshed in place."""
        self._fan_out(self._republished, service_name, origin)

    def all_records(self) -> List[Dict[str, Any]]:
        rows = self.db.select(SERVICE_TABLE)
        return sorted(rows, key=lambda r: r["service_name"])

    def set_digest(self, service_name: str, digest: str) -> None:
        """Record the digest of the bytes *service_name* now runs.

        Called inside the transaction that commits a replacement upload,
        so the row and the executable change in one WAL frame; a service
        not recorded yet (a first publish) writes its digest with the
        record instead.
        """
        self.db.update_eq(SERVICE_TABLE, "service_name", service_name,
                          {"digest": digest})

    @staticmethod
    def rehydrate(row: Dict[str, Any]) -> GeneratedService:
        """A :class:`GeneratedService` view of a store row."""
        service = GeneratedService(
            service_name=row["service_name"],
            executable_name=row["executable_name"],
            endpoint=row["endpoint"],
            wsdl_location=row["wsdl_location"],
            uddi_service_key=row["uddi_service_key"],
            uddi_binding_key=row["uddi_binding_key"],
            archive_size=row["archive_size"],
            created_at=row["created_at"])
        service.digest = row["digest"] or ""
        return service

    # -- staged grid copies ---------------------------------------------------

    @staticmethod
    def _staged_key(site: str, path: str) -> str:
        return f"{site}|{path}"

    def staged_digest(self, site: str, path: str) -> Optional[str]:
        try:
            return self.db.get_by_pk(
                STAGED_TABLE, self._staged_key(site, path))["digest"]
        except RecordNotFound:
            return None

    def mark_staged(self, site: str, path: str, digest: str,
                    replica: str) -> None:
        self.db.upsert(STAGED_TABLE, [self._staged_key(site, path),
                                      site, path, digest, replica])

    def evict_staged(self, path: str, site: Optional[str] = None
                     ) -> List[str]:
        """Drop *site*'s copy of exactly *path* (the file turned out to
        be gone) — or every site's (replacement upload).  Returns the
        sites whose row went, by name: where the old bytes were."""
        column, value = (("key", self._staged_key(site, path))
                         if site is not None else ("path", path))
        rows = self.db.find_eq(STAGED_TABLE, column, value)
        self.db.delete_eq(STAGED_TABLE, column, value)
        return sorted(r["site"] for r in rows)

    def staged_sites(self, path: str, digest: str) -> List[str]:
        """The sites recorded as holding *digest* at *path*, by name."""
        rows = self.db.find_eq(STAGED_TABLE, "path", path)
        return sorted(r["site"] for r in rows if r["digest"] == digest)

    def staged_copies(self) -> List[Tuple[str, str, str]]:
        """(site, path, digest) rows, ordered (test/inspection hook)."""
        rows = self.db.select(STAGED_TABLE)
        return sorted((r["site"], r["path"], r["digest"]) for r in rows)

    # -- seeds: publish-time stages in flight ---------------------------------

    def begin_seed(self, path: str, digest: str, site: str,
                   replica: str) -> str:
        """Announce a seed of *digest* at *path*, filling *site* first,
        run by *replica*; returns the seed's id.  A marker still there
        is overwritten — that seed is cancelled: its watchers are told
        now, and its next :meth:`seed_at` or :meth:`end_seed` finds the
        marker no longer its own."""
        self._seed_seq += 1
        seed = f"seed-{self._seed_seq:06d}"
        self._seeds[path] = {"digest": digest, "site": site,
                             "replica": replica, "seed": seed}
        self._seed_moved(path, None)
        return seed

    def seed_flight(self, path: str) -> Optional[Dict[str, Any]]:
        """The marker of the seed in flight at *path*, if any."""
        return self._seeds.get(path)

    def owns_seed(self, path: str, seed: str) -> bool:
        """Whether *path*'s marker is still seed *seed*'s (it was not
        cancelled or ended)."""
        flight = self._seeds.get(path)
        return flight is not None and flight["seed"] == seed

    def seed_at(self, path: str, seed: str, site: str,
                trace: Any = None) -> bool:
        """Seed *seed* moves on to *site*; ``False`` if it was cancelled.

        Watchers of the path are told, with *trace* — the span of the
        stage that just finished — so those waiting on the previous
        site find it staged.
        """
        if not self.owns_seed(path, seed):
            return False
        self._seeds[path]["site"] = site
        self._seed_moved(path, trace)
        return True

    def end_seed(self, path: str, seed: str, trace: Any = None) -> bool:
        """Seed *seed* is over (done, failed or crashed): drop its marker
        and tell the watchers; ``False`` if it had been cancelled already."""
        if not self.owns_seed(path, seed):
            return False
        del self._seeds[path]
        self._seed_moved(path, trace)
        return True

    def cancel_seed(self, path: str) -> Optional[Dict[str, Any]]:
        """Drop whatever seed is in flight at *path* (its bytes were
        replaced); returns its marker."""
        flight = self._seeds.pop(path, None)
        if flight is not None:
            self._seed_moved(path, None)
        return flight

    def watch_seed(self, path: str, listener: Callable[[Any], None]) -> None:
        """Call ``listener(trace)`` once, when *path*'s marker next moves
        on (:meth:`seed_at`), ends or is cancelled."""
        self._seed_watchers.setdefault(path, []).append(listener)

    def _seed_moved(self, path: str, trace: Any) -> None:
        for listener in self._seed_watchers.pop(path, ()):
            listener(trace)

    # -- invocation dedup (kept for the harness's store driver) ---------------

    def dedup_result(self, key: str) -> Optional[str]:
        """The recorded result for idempotency key *key*, if completed."""
        try:
            return self.db.get_by_pk(DEDUP_TABLE, key)["result"]
        except RecordNotFound:
            return None

    def record_dedup(self, key: str, replica: str, result: str,
                     now: float) -> bool:
        """Record one invocation's completion; ``False`` on a duplicate.

        Written in the same frame that observes the replica-side result,
        so there is no yield point between "the work happened" and "the
        record exists".  A ``False`` return means some other attempt
        already completed this key — the caller double-executed, which
        :attr:`dedup_duplicates` counts.
        """
        if self.dedup_result(key) is not None:
            self.dedup_duplicates += 1
            return False
        self.db.insert(DEDUP_TABLE, [key, replica, str(result), now])
        return True

    # -- shared counters ------------------------------------------------------

    def seed_counters(self) -> None:
        """Seed both counters from recorded history, exactly once.

        Called by each replica's init; only the first call (across the
        fabric) reads the largest history id, so later replicas cannot
        rewind the sequence below ids already handed out this run.
        """
        if self._invocation_counter is None:
            self._invocation_counter = self._seed_counter()
        if self._tag_seq is None:
            self._tag_seq = self._invocation_counter

    def _seed_counter(self) -> int:
        if "invocations" not in self.db.tables:
            return 0
        return max((row["id"] for row in self.db.select("invocations")),
                   default=0)

    def next_invocation_id(self) -> int:
        """Fabric-unique invocation row id (resumes past history)."""
        if self._invocation_counter is None:
            self._invocation_counter = self._seed_counter()
        self._invocation_counter += 1
        return self._invocation_counter

    def next_tag_seq(self) -> int:
        """Fabric-unique job-tag sequence number.

        Job tags name stdout files on the grid: a tag reused by any
        replica (or after a restart) would alias an old output file and
        fool the outputReady probe, so the sequence is shared."""
        if self._tag_seq is None:
            self._tag_seq = self._seed_counter()
        self._tag_seq += 1
        return self._tag_seq

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (f"<ServiceStateStore services={self.db.count(SERVICE_TABLE)} "
                f"staged={self.db.count(STAGED_TABLE)} "
                f"replicas={sorted(self._removed)}>")
