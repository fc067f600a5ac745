"""The OnServe middleware facade and full-stack deployment.

:class:`OnServe` ties the appliance components together: the database
(executable storage), the service builder, the SOAP server, the UDDI
registry and the Cyberaide agent.  Its :meth:`~OnServe.generate_service`
implements §VII.A's "further treatment" (storage, service build,
publishing); the generated services themselves run
:class:`~repro.core.grid_service.GridServiceRuntime`.

:func:`deploy_onserve` is the on-demand story of §V for the paper's
single appliance: :func:`~repro.core.fabric.deploy_fabric` — the one
deployer — with its default arguments.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Generator, List, Optional

from repro.core.coalesce import SingleFlight
from repro.core.context import RequestContext, span
from repro.core.datastructures import (
    ExecutableRecord, GeneratedService, parse_params_spec, service_name_for,
)
from repro.core.grid_service import GridServiceRuntime
from repro.core.registry import ServiceStateStore
from repro.core.service_builder import ServiceBuilder
from repro.core.session import SessionCache
from repro.cyberaide.agent import CyberaideAgent
from repro.cyberaide.jobspec import staged_path_for
from repro.db.dbmanager import DbManager, DbTierConfig, StoredExecutable
from repro.errors import OnServeError, ServiceNotFound, UddiError, UploadError
from repro.grid.testbed import Testbed
from repro.hardware.host import Host
from repro.resilience.breaker import OPEN, BreakerBoard
from repro.resilience.retry import RetryPolicy, retry_call
from repro.simkernel.events import Event
from repro.simkernel.process import Process
from repro.telemetry.events import bus
from repro.ws.client import WsClient, generate_stub
from repro.ws.server import SoapFabric, SoapServer
from repro.ws.uddi import UddiRegistry

__all__ = ["OnServeConfig", "OnServe", "deploy_onserve"]


class OnServeConfig:
    """All tunables of the middleware (ablation flags included)."""

    #: Event-propagation delay: gatekeeper -> appliance trip of one
    #: state-change message — the whole detection lag of the push path.
    notify_propagation = 0.5

    def __init__(self,
                 grid_username: str = "onserve",
                 grid_passphrase: str = "appliance-secret",
                 poll_interval: float = 9.0,
                 watchdog_timeout: float = 6 * 3600.0,
                 double_write: bool = True,
                 upload_cache: bool = False,
                 status_supported: bool = False,
                 site_policy: str = "best",
                 retry_max_attempts: int = 3,
                 retry_base_delay: float = 2.0,
                 retry_max_delay: float = 30.0,
                 retry_jitter: float = 0.0,
                 breaker_failure_threshold: int = 3,
                 breaker_reset_timeout: float = 900.0,
                 failover_sites: int = 2,
                 coalesce: bool = False,
                 datapath: bool = False,
                 notify: bool = False,
                 notify_sites: tuple = ("*",),
                 db_mvcc: bool = False,
                 db_serialize: bool = False,
                 db_chunk_bytes: int = 0,
                 db_replicas: int = 0):
        if site_policy not in ("best", "round_robin"):
            raise OnServeError(f"unknown site policy {site_policy!r}")
        if failover_sites < 0:
            raise OnServeError("failover_sites must be >= 0")
        self.grid_username = grid_username
        self.grid_passphrase = grid_passphrase
        #: Tentative-poll period (the "relative constant interval") of
        #: every per-job poll: the faithful output poll and the status
        #: ablation's.
        self.poll_interval = poll_interval
        self.watchdog_timeout = watchdog_timeout
        #: Faithful flaw: uploads hit the disk twice (temp, then DB).
        #: False is the "may be improved" ablation (§VIII.D.3).
        self.double_write = double_write
        #: Faithful flaw: executables re-upload on every invocation.
        #: True is the ablation: one of the two switches behind
        #: :attr:`stage_once`, and the only one that isolates the
        #: §VIII.B re-upload flaw with the rest of the faithful timeline
        #: alone (``bench_ablations.py``, ``scenarios/throughput.py``).
        self.upload_cache = upload_cache
        #: Faithful flaw: agent job status unavailable -> tentative
        #: output polling.  True is the clean-status ablation.
        self.status_supported = status_supported
        #: Resource selection: "best" (most free cores, the MDS
        #: ranking) or "round_robin".
        self.site_policy = site_policy
        #: Resilience: retry policy for transient agent/grid/db calls.
        self.retry_max_attempts = retry_max_attempts
        self.retry_base_delay = retry_base_delay
        self.retry_max_delay = retry_max_delay
        self.retry_jitter = retry_jitter
        #: Resilience: per-site circuit breakers.
        self.breaker_failure_threshold = breaker_failure_threshold
        self.breaker_reset_timeout = breaker_reset_timeout
        #: Resilience: how many *additional* sites one invocation may
        #: fail over to after its first choice (0 disables failover).
        self.failover_sites = failover_sites
        #: Hot-path optimisation: concurrent invocations share work —
        #: one agent session per replica instead of one per service,
        #: single-flight DB executable fetch and GridFTP staging per
        #: (site, path).  Off by default: the faithful timeline (and
        #: every golden figure) runs without it.  A flag of its own
        #: while ``benchmarks/e2e`` passes ``coalesce=True`` and reads
        #: ``flights.flights`` / ``joins``.
        self.coalesce = coalesce
        #: Grid data-path plane: one pooled GSI channel per (site,
        #: endpoint, credential) on the agent for GridFTP and GRAM, and
        #: staging by content, once (:attr:`stage_once`).  Completion
        #: detection is not its business: a site without notify polls
        #: per job either way.  Off by default: the goldens pin the
        #: pay-per-operation timeline.
        self.datapath = datapath
        #: Push path: attach the notification queue and mark the listed
        #: sites' gatekeepers capable ("*" means every site); each job
        #: on a capable site pushes one message, its terminal state.
        #: Off by default: the goldens pin the poll-based timeline, and
        #: even when the queue is attached a site absent from
        #: ``notify_sites`` falls to the paper's per-job ``poll_until``.
        self.notify = notify
        self.notify_sites = tuple(notify_sites)
        #: DB tier scale-out, all off by default so the goldens pin the
        #: single-connection whole-BLOB timeline: MVCC lock-free reads,
        #: modelled connection contention and chunked BLOB streaming.
        #: The tier config owns the fields and their range checks;
        #: ``deploy_fabric`` hands this object to the :class:`DbManager`
        #: it builds.  ``db_replicas`` is accepted and ignored (every
        #: read is a primary read): the benchmark harness's
        #: ``production`` profile still passes it, and ROADMAP item 1
        #: removes it.
        self.db_tier = DbTierConfig(mvcc=db_mvcc, serialize=db_serialize,
                                    chunk_bytes=db_chunk_bytes)

    @property
    def stage_once(self) -> bool:
        """Stage by content, once: trust the store's ``staged_copies``.

        The one predicate the runtime's staging step asks.  On, a site
        whose row carries the digest of the bytes an invocation just
        loaded is not uploaded to again, a site that lacks them is fed
        head node to head node from one that has them, and every
        staging is recorded; off (the faithful flaw), nothing reads or
        writes the table.
        """
        return self.upload_cache or self.datapath


class OnServe:
    """The middleware running inside the appliance."""

    BUSINESS_NAME = "Cyberaide onServe"
    #: Agent sessions are renewed hourly, well before the delegated
    #: proxy behind them (``AgentConfig.default_proxy_lifetime``) expires.
    SESSION_RENEWAL = 3600.0

    def __init__(self, host: Host, soap_server: SoapServer,
                 fabric: SoapFabric, uddi: UddiRegistry,
                 dbmanager: DbManager, agent: CyberaideAgent,
                 config: OnServeConfig, store: ServiceStateStore):
        self.host = host
        self.sim = host.sim
        self.soap_server = soap_server
        self.fabric = fabric
        self.uddi = uddi
        self.dbmanager = dbmanager
        self.agent = agent
        self.config = config
        self.builder = ServiceBuilder(host, soap_server)
        #: This replica's identity in the fabric (the host name).
        self.replica = host.name
        #: The replicated source of truth for service/deployment state:
        #: ``deploy_fabric`` passes one shared store to every replica.
        self.store = store
        #: Set by ``deploy_fabric`` when a request router fronts this
        #: replica; generated services then publish the router endpoint.
        self.router = None
        #: Observability plane: middleware milestones become events.
        self.bus = bus(self.sim)
        #: Resilience plane: one shared retry policy + per-site breakers.
        self.retry_policy = RetryPolicy(
            max_attempts=self.config.retry_max_attempts,
            base_delay=self.config.retry_base_delay,
            max_delay=self.config.retry_max_delay,
            jitter=self.config.retry_jitter)
        self.breakers = BreakerBoard(
            self.sim,
            failure_threshold=self.config.breaker_failure_threshold,
            reset_timeout=self.config.breaker_reset_timeout)
        # The wsimport-generated client for the agent: onServe talks to
        # its own agent through the web-service interface (paper §VI,
        # "client" package), over the loopback path.
        wsdl = soap_server.wsdl(CyberaideAgent.SERVICE_NAME)
        self.agent_stub = generate_stub(wsdl)(WsClient(host, fabric))
        # UDDI anchors.  Replicas share one registry: the first replica
        # publishes the business entity and tModel, later ones reuse
        # them instead of minting duplicates.
        existing_biz = uddi.find_business(self.BUSINESS_NAME)
        self.business = existing_biz[0] if existing_biz else \
            uddi.save_business(self.BUSINESS_NAME, "SaaS on production grids")
        existing_tm = uddi.find_tmodel("onserve:grid-execution")
        self.tmodel = existing_tm[0] if existing_tm else uddi.save_tmodel(
            "onserve:grid-execution",
            overview_url=f"soap://{host.name}/onserve-docs")
        #: Write-through cache over the store: the services/runtimes this
        #: replica has locally materialized.  The store row is the truth;
        #: these dicts only memoize the live objects built from it.
        self.services: Dict[str, GeneratedService] = {}
        self.runtimes: Dict[str, GridServiceRuntime] = {}
        # Teardown hangs off the container's undeploy hook so UDDI and
        # the registries stay consistent no matter which path undeploys
        # a service (previously a direct SoapServer.undeploy left stale
        # bindingTemplates behind).
        soap_server.on_undeploy(self._on_soap_undeploy)
        # Cross-replica invalidation: another replica's undeploy drops
        # this replica's cached objects; its replacement upload
        # refreshes them in place.
        self.store.subscribe(self.replica, self._on_store_removed,
                             self._on_store_republished)
        #: Guard flag: the service currently being dropped *because* of
        #: a store fan-out (so the local undeploy hook does not recurse
        #: back into the store).
        self._cascading: Optional[str] = None
        #: In-flight materializations, one pending event per service
        #: (prevents two concurrent requests double-building a service).
        self._materializing: Dict[str, Event] = {}
        #: Single-flight coalescing of concurrent invocations' shared
        #: work (enabled by ``config.coalesce``; a no-op pass-through
        #: otherwise, so the default timeline is untouched).  Flight
        #: keys include ``self.replica`` so two replicas sharing one
        #: DbManager can never alias each other's flights.
        self.flights = SingleFlight(self.sim, enabled=self.config.coalesce)
        #: This replica's agent session: every stripe carried here logs
        #: on with it, and so do the runtimes under ``config.coalesce``.
        self.session_cache = SessionCache(self)
        #: The terminal job-state notification queue (push path), wired
        #: by ``deploy_fabric`` when ``config.notify`` is set — or
        #: attached externally (the golden guard attaches one with zero
        #: capable sites to prove it is byte-invisible).  The runtime
        #: takes the push rung only for sites the queue marks capable.
        self.notify_queue = None
        # Durable invocation history (queried by the management API).
        from repro.db.table import Column
        if "invocations" not in self.dbmanager.db.tables:
            self.dbmanager.db.create_table("invocations", [
                Column("id", "INT", primary_key=True),
                Column("service", "TEXT", nullable=False),
                Column("job_id", "TEXT"),
                Column("started_at", "REAL", nullable=False),
                Column("total", "REAL", nullable=False),
                Column("overhead", "REAL", nullable=False),
                Column("polls", "INT", nullable=False),
                Column("ok", "INT", nullable=False),
                Column("error", "TEXT"),
            ])
            self.dbmanager.db.create_index("invocations", "service", "hash")
        # Resume numbering after recovered history (appliance restarts);
        # the counters are fabric-wide, so this seeds only once.
        self.store.seed_counters()

    # -- staged grid copies (``config.stage_once``) --------------------------
    # *digest* is :attr:`StoredExecutable.digest`: one hash per load.

    @property
    def stages_at_publish(self) -> bool:
        """Publish-time staging: :attr:`OnServeConfig.stage_once` on a
        routed fabric.  A publish records its digest on the service
        row, an invocation loads from the DB only when the chosen site
        misses that digest, and a republish reseeds where the old bytes
        were (DESIGN.md §10)."""
        return (self.config.stage_once and self.router is not None
                and self.router.enabled)

    def is_staged(self, site: str, path: str, digest: str) -> bool:
        return self.store.staged_digest(site, path) == digest

    def mark_staged(self, site: str, path: str, digest: str) -> None:
        self.store.mark_staged(site, path, digest, self.replica)

    def replication_source(self, site: str, path: str,
                           digest: str) -> Optional[str]:
        """A site other than *site* the store shows holding *digest* at
        *path*, first by name among those whose breaker is not open."""
        states = self.breakers.states()
        for holder in self.store.staged_sites(path, digest):
            if holder != site and states.get(holder) != OPEN:
                return holder
        return None

    # -- §VII.A "further treatment" -----------------------------------------------

    def generate_service(self, name: str, payload: bytes,
                         description: str = "", params_spec: str = "",
                         uploaded_by: str = "portal",
                         ctx: Optional[RequestContext] = None) -> Process:
        """Store the executable, build+deploy its service, publish it.

        The process-event's value is the :class:`GeneratedService`.
        Re-uploading an existing executable *replaces the file* but keeps
        the already-published service (the paper's re-upload semantics).
        """

        def op() -> Generator[Event, None, GeneratedService]:
            if not payload:
                raise UploadError(f"executable {name!r} is empty")
            params = parse_params_spec(params_spec)

            service_name = service_name_for(name)
            existing = self._cached_or_stored(service_name)
            if existing is not None and existing.executable_name != name:
                # "hello.sh" and "hello.py" would both become
                # HelloService — refuse instead of silently aliasing.
                raise UploadError(
                    f"executable {name!r} would collide with service "
                    f"{service_name!r} (owned by "
                    f"{existing.executable_name!r})")

            # Storage: the executable lands in the database.  Transient
            # engine failures (stalled/aborted commits) are retried under
            # the shared policy; the first attempt is driven exactly as
            # the bare call would be.  Under publish-time staging the
            # service row takes the new bytes' digest in the same frame
            # (a first publish writes it with the record).
            digest = (hashlib.sha256(payload).hexdigest()
                      if self.stages_at_publish else "")
            on_commit = ((lambda: self.store.set_digest(service_name,
                                                        digest))
                         if digest else None)
            with span(ctx, "onserve:store", executable=name):
                exe = yield from retry_call(
                    self.sim, self.retry_policy,
                    lambda: self.dbmanager.store_executable(
                        name, payload, description=description,
                        params_spec=params_spec, on_commit=on_commit),
                    ctx=ctx, label=f"db-store:{name}")
            if digest:
                # The stored version's digest is the one just hashed:
                # its first fetch hashes nothing again.
                exe.digest = digest

            record = ExecutableRecord(name, description, params,
                                      size=len(payload),
                                      uploaded_by=uploaded_by,
                                      uploaded_at=self.sim.now)

            if existing is not None:
                # Replacement upload: same service, new bytes.  The DB
                # row is already refreshed above; propagate the new
                # record to every in-memory surface too.
                evicted = self._refresh_replaced(existing, record)
                if digest:
                    self._reseed(existing.service_name, record, exe,
                                 evicted)
                return existing

            # Service build + publication.
            service = yield from self._build_and_publish(record, ctx=ctx,
                                                         digest=digest)
            return service

        return self.sim.process(op(), name=f"generate:{name}")

    def _build_and_publish(self, record: ExecutableRecord,
                           ctx: Optional[RequestContext] = None,
                           digest: str = ""):
        """Build the service archive, deploy it, publish it in UDDI.

        A generator meant to be delegated to (``yield from``) inside a
        simulation process; returns the :class:`GeneratedService`, whose
        record carries *digest*.
        """
        service_name = service_name_for(record.name)
        runtime = GridServiceRuntime(self, record)
        with span(ctx, "onserve:build", service=service_name):
            endpoint, archive = yield self.builder.build_and_deploy(
                record, runtime.handler)
        # Behind an enabled router the *published* endpoint is the
        # router's — clients must route, not pin this replica.
        if self.router is not None and self.router.enabled:
            endpoint = self.router.endpoint_for(service_name)
        with span(ctx, "onserve:uddi-publish", service=service_name):
            yield self.host.compute(0.02)
            entry = self.uddi.save_service(
                self.business.key, service_name, record.description)
            binding = self.uddi.save_binding(
                entry.key, access_point=endpoint,
                wsdl_location=endpoint + "?wsdl",
                tmodel_key=self.tmodel.key)
        service = GeneratedService(
            service_name=service_name,
            executable_name=record.name,
            endpoint=endpoint,
            wsdl_location=binding.wsdl_location,
            uddi_service_key=entry.key,
            uddi_binding_key=binding.key,
            archive_size=len(archive),
            created_at=self.sim.now)
        service.digest = digest
        self.services[service_name] = service
        self.runtimes[service_name] = runtime
        self.store.put_record(service, self.replica)
        self.bus.emit("core.service_generated", layer="core",
                      request_id=ctx.request_id if ctx else None,
                      service=service_name, executable=record.name,
                      archive_bytes=len(archive))
        return service

    def _refresh_replaced(self, existing: GeneratedService,
                          record: ExecutableRecord) -> List[str]:
        """Propagate a replacement upload beyond the database row.

        Pure bookkeeping (no simulated cost): the runtime's in-memory
        :class:`ExecutableRecord`, the container's deployed interface
        and the UDDI service description all refresh in place —
        previously only the DB row changed, so later invocations
        validated against the stale parameter spec and ``usage_report``
        showed the old size/description.  Staged grid copies of the old
        bytes are evicted by their *exact* staging path (suffix matching
        could evict another executable whose name path-suffixes this
        one), and the store announces the change to its other
        subscribers: every other replica and every client cache.
        Returns the sites that held the old bytes.
        """
        service_name = existing.service_name
        self._refresh_local(service_name, record)
        try:
            self.uddi.get_service(existing.uddi_service_key).description = \
                record.description
        except UddiError:
            pass  # unpublished out-of-band; nothing to refresh
        evicted = self.store.evict_staged(staged_path_for(record.name))
        self.bus.emit("core.service_republished", layer="core",
                      service=service_name, executable=record.name,
                      size=record.size)
        # Other replicas refresh their materializations of this service
        # in place and client caches drop what they hold about it.
        self.store.record_republished(service_name, origin=self.replica)
        return evicted

    def _refresh_local(self, service_name: str,
                       record: ExecutableRecord) -> None:
        """Point this replica's materialization of *service_name*, if
        any, at *record*: the runtime and the container's interface
        change in place — a re-upload replaces the executable, not the
        service — so no request pays a rebuild."""
        runtime = self.runtimes.get(service_name)
        if runtime is None:
            return  # not materialized here: a request builds it afresh
        runtime.record = record
        self.soap_server.update_description(
            service_name, self.builder.description_for(record))

    def _on_store_republished(self, service_name: str) -> None:
        """Another replica replaced the service's bytes: refresh the
        local materialization from the executables row."""
        if service_name in self.runtimes:
            row = self.store.get_record(service_name)
            self.services[service_name] = ServiceStateStore.rehydrate(row)
            exe = self.dbmanager.db.get_by_pk(self.dbmanager.TABLE,
                                              row["executable_name"])
            self._refresh_local(service_name,
                                _record_of(exe, uploaded_by="materialize"))

    def _reseed(self, service_name: str, record: ExecutableRecord,
                exe: StoredExecutable, sites: List[str]) -> None:
        """Stage a republished service's new bytes where the old ones
        were, ahead of the first invocation (DESIGN.md §10).

        Pure bookkeeping here: a seed in flight for the old bytes is
        cancelled, and — when some site held the old bytes; a first
        publish has no such evidence of demand and is never seeded — a
        new one is handed to the service's ring owner
        (:meth:`GridServiceRuntime._seed`), which stages to the
        best-ranked of *sites* and copies site to site to the rest.
        """
        old = self.store.cancel_seed(staged_path_for(record.name))
        if old is not None:
            self.bus.emit("core.seed_cancelled", layer="core",
                          service=service_name, seed=old["seed"],
                          replica=old["replica"], reason="republished")
        if not sites:
            return
        # The ring owner — or, if its connection is refused, the next.
        owner = next(
            (handle for handle in map(self.router.replica_handle,
                                      self.router.ring.preference(
                                          service_name))
             if not handle.crashed), None)
        if owner is None:
            return
        runtime = (owner.onserve.runtimes.get(service_name)
                   or GridServiceRuntime(owner.onserve, record))
        ctx = RequestContext(self.sim, f"seed:{service_name}",
                             principal=self.replica)
        self.router.run_on(owner.name,
                           runtime._seed(self, exe, sites, ctx),
                           f"seed:{service_name}")

    def restore_services(self) -> Process:
        """Regenerate every service from the executables table.

        The appliance-restart story: after a crash, the database (WAL
        recovery) still holds every uploaded executable, but the SOAP
        container and UDDI registry start empty.  This replays the
        service build for each stored executable so the published
        surface comes back without any re-upload.  The process-event's
        value is the list of restored service names.
        """

        def op() -> Generator[Event, None, List[str]]:
            restored: List[str] = []
            for row in self.dbmanager.list_executables():
                service_name = service_name_for(row["name"])
                if service_name in self.services:
                    continue
                record = _record_of(row, uploaded_by="restore")
                # The row must name the bytes again, or no invocation
                # of a restored service could hit a staged copy.
                digest = (self.dbmanager.executable_digest(row["name"])
                          if self.stages_at_publish else "")
                service = yield from self._build_and_publish(record,
                                                             digest=digest)
                restored.append(service.service_name)
            return restored

        return self.sim.process(op(), name="restore-services")

    def new_job_tag(self) -> str:
        """A per-invocation tag unique across restarts (stdout naming).

        The sequence is fabric-wide (store-backed): two replicas must
        never mint the same tag, or their stdout files would alias on
        the grid and fool each other's outputReady probes.
        """
        return f"i{self.store.next_tag_seq():06d}"

    # -- invocation history ---------------------------------------------------

    def record_invocation(self, service_name: str, report) -> None:
        """Persist one execute() report: one history row, one WAL frame
        (bookkeeping; no simulated cost — the row rides along the WAL
        writes already charged elsewhere)."""
        self.dbmanager.db.insert("invocations", [
            self.store.next_invocation_id(),
            service_name,
            report.job_id,
            report.started_at,
            report.total,
            report.overhead,
            report.polls,
            1 if report.ok else 0,
            report.error,
        ])
        self.bus.emit("core.invocation", layer="core",
                      service=service_name, job_id=report.job_id,
                      total=report.total, overhead=report.overhead,
                      polls=report.polls, ok=report.ok)

    def invocation_count(self, service: GeneratedService) -> int:
        """How often *service* ran, fabric-wide: its history rows since
        it was published, so a name undeployed and published again
        counts from zero."""
        return sum(1 for row in self.dbmanager.db.find_eq(
                       "invocations", "service", service.service_name)
                   if row["started_at"] >= service.created_at)

    def usage_report(self) -> List[Dict[str, object]]:
        """Per-service usage aggregates from the history table, one row
        per service in name order: invocations, successes, mean total
        and overhead seconds, poll rounds."""
        groups: Dict[str, List[Dict[str, object]]] = {}
        for row in self.dbmanager.db.select("invocations"):
            groups.setdefault(row["service"], []).append(row)
        return [{"service": service, "count": len(rows),
                 "ok": sum(r["ok"] for r in rows),
                 "avg_total": sum(r["total"] for r in rows) / len(rows),
                 "avg_overhead": sum(r["overhead"] for r in rows) / len(rows),
                 "polls": sum(r["polls"] for r in rows)}
                for service, rows in sorted(groups.items())]

    # -- management ---------------------------------------------------------------

    def _cached_or_stored(self, service_name: str
                          ) -> Optional[GeneratedService]:
        """The local object if cached, else a view of the store row."""
        svc = self.services.get(service_name)
        if svc is not None:
            return svc
        row = self.store.get_record(service_name)
        if row is None:
            return None
        return ServiceStateStore.rehydrate(row)

    def get_service(self, service_name: str) -> GeneratedService:
        svc = self._cached_or_stored(service_name)
        if svc is None:
            raise ServiceNotFound(
                f"onServe has no service {service_name!r}")
        return svc

    def list_services(self) -> List[GeneratedService]:
        merged = {row["service_name"]: ServiceStateStore.rehydrate(row)
                  for row in self.store.all_records()}
        merged.update(self.services)
        return [merged[k] for k in sorted(merged)]

    # -- replica materialization (deploy on A, invoke on B) --------------------

    def ensure_local_service(self, service_name: str,
                             ctx: Optional[RequestContext] = None
                             ) -> Generator[Event, None, None]:
        """Make *service_name* servable by this replica's container.

        A generator meant to be delegated to (``yield from``).  On the
        hot path — the service is already deployed locally — it yields
        nothing and costs nothing.  Otherwise the service exists only as
        a store row (generated through another replica): rebuild the
        runtime from the executables table and deploy it into the local
        container, charging this replica's CPU, *without* republishing
        UDDI (the record is already published).  Concurrent requests for
        the same service park on one pending event instead of
        double-building.
        """
        while True:
            try:
                self.soap_server.service(service_name)
                return  # already servable here (generated or infra)
            except ServiceNotFound:
                pass
            pending = self._materializing.get(service_name)
            if pending is None:
                break
            yield pending  # someone is building it; re-check after

        row = self.store.get_record(service_name)
        if row is None:
            raise ServiceNotFound(
                f"onServe has no service {service_name!r}")
        from repro.errors import RecordNotFound
        try:
            exe = self.dbmanager.db.get_by_pk(self.dbmanager.TABLE,
                                              row["executable_name"])
        except RecordNotFound:
            raise ServiceNotFound(
                f"service {service_name!r} lost its executable "
                f"{row['executable_name']!r}") from None
        record = _record_of(exe, uploaded_by="materialize")
        runtime = GridServiceRuntime(self, record)
        pending = self.sim.event(f"materialize:{service_name}")
        self._materializing[service_name] = pending
        try:
            with span(ctx, "onserve:materialize", service=service_name):
                yield self.builder.build_and_deploy(record, runtime.handler)
            self.services[service_name] = ServiceStateStore.rehydrate(row)
            self.runtimes[service_name] = runtime
            self.bus.emit("core.service_materialized", layer="core",
                          request_id=ctx.request_id if ctx else None,
                          service=service_name, replica=self.replica,
                          origin=row["replica"])
        finally:
            del self._materializing[service_name]
            pending.succeed()

    def _on_soap_undeploy(self, service_name: str) -> None:
        """Container undeploy hook: unpublish UDDI, drop the registries.

        Idempotent, and tolerant of services the container hosts that
        onServe never generated (agent, inquiry, management).  When the
        drop is itself the *result* of a store fan-out (another replica
        undeployed), only the local caches fall — the origin replica
        already did the global cleanup.
        """
        service = self.services.pop(service_name, None)
        self.runtimes.pop(service_name, None)
        if self._cascading == service_name:
            return
        row = self.store.remove_record(service_name, origin=self.replica)
        if service is None and row is None:
            return  # never a generated service (agent, inquiry, ...)
        key = service.uddi_service_key if service is not None \
            else row["uddi_service_key"]
        try:
            self.uddi.delete_service(key)
        except UddiError:
            pass  # already unpublished by an explicit teardown

    def _on_store_removed(self, service_name: str) -> None:
        """Another replica undeployed or replaced the service: drop
        local surfaces only."""
        self._cascading = service_name
        try:
            try:
                self.soap_server.undeploy(service_name)
            except ServiceNotFound:
                self.services.pop(service_name, None)
                self.runtimes.pop(service_name, None)
        finally:
            self._cascading = None

    def undeploy_service(self, service_name: str) -> Process:
        """Remove a generated service everywhere (SOAP, UDDI, DB).

        Works from any replica: if the service was never materialized
        here, the store record is removed directly (fanning the drop out
        to whichever replicas do hold it) and UDDI is unpublished.
        """
        service = self.get_service(service_name)

        def op() -> Generator[Event, None, None]:
            try:
                # The undeploy listener handles UDDI + registry cleanup.
                self.soap_server.undeploy(service_name)
            except ServiceNotFound:
                # Record-only on this replica: do the global cleanup
                # directly; holders drop via the store fan-out.
                self.store.remove_record(service_name, origin=self.replica)
                try:
                    self.uddi.delete_service(service.uddi_service_key)
                except UddiError:
                    pass
            yield self.dbmanager.delete_executable(service.executable_name)

        return self.sim.process(op(), name=f"undeploy:{service_name}")

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<OnServe services={sorted(self.services)}>"


def _record_of(row: Dict[str, Any], uploaded_by: str) -> ExecutableRecord:
    """The :class:`ExecutableRecord` an executables-table *row* holds."""
    return ExecutableRecord(row["name"], row["description"],
                            parse_params_spec(row["params_spec"]),
                            size=row["size"], uploaded_by=uploaded_by,
                            uploaded_at=row["stored_at"])


def deploy_onserve(testbed: Testbed,
                   config: Optional[OnServeConfig] = None,
                   dbmanager: Optional[DbManager] = None) -> Process:
    """Deploy the paper's single virtual appliance (§V) onto *testbed*.

    :func:`~repro.core.fabric.deploy_fabric` with its default arguments;
    the process-event's value is a :class:`~repro.core.fabric.FabricStack`
    of one replica behind a disabled router.
    """
    from repro.core.fabric import deploy_fabric
    return deploy_fabric(testbed, config, dbmanager)
