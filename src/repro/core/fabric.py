"""The one deployer: N stateless onServe appliances behind a router.

:func:`deploy_fabric` is the on-demand story of §V — build the appliance
image, deploy it, boot the packages, wire up every component, enrol the
grid identity — for one virtual appliance or a sharded deployment
(DESIGN.md §11):

* **N replica hosts** cloned from the testbed's appliance host, each
  with its own thin WAN uplink to the grid and its own LAN links, each
  running the full software stack (SOAP container, Cyberaide agent,
  :class:`~repro.core.onserve.OnServe`, UDDI inquiry + management
  endpoints),
* **one shared DB tier** (:class:`~repro.db.dbmanager.DbManager` on the
  primary appliance host) holding the executables, the invocation
  history and the :class:`~repro.core.registry.ServiceStateStore`
  tables that make the replicas stateless,
* **one shared UDDI registry** — still the placement source of truth
  clients discover through, and
* **one request router host** fronting the replicas
  (:class:`~repro.ws.router.RequestRouter`): generated services publish
  the *router* endpoint, so every invocation is hash-routed with
  breaker-aware skip and least-loaded spill.

The paper's single appliance is the same function with its default
arguments (``replicas=1``, router off): no clone hosts, no router host,
and a *disabled* router ringed on the appliance itself — it owns no
endpoint and creates no simulation events, so the faithful timeline the
goldens pin cannot see it.
:func:`~repro.core.onserve.deploy_onserve` is exactly that call.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.appliance.deploy import DeployedAppliance, deploy_image
from repro.appliance.image import ImageBuilder, ONSERVE_PACKAGES
from repro.core.onserve import OnServe, OnServeConfig
from repro.core.portal import CyberaidePortal
from repro.core.registry import ServiceStateStore
from repro.cyberaide.agent import AgentConfig, CyberaideAgent
from repro.db.dbmanager import DbManager
from repro.errors import OnServeError
from repro.grid.testbed import Testbed
from repro.hardware.host import Host, HostSpec
from repro.simkernel.events import Event
from repro.simkernel.process import Interrupt, Process
from repro.telemetry.events import bus
from repro.units import Gbps
from repro.ws.cache import DEFAULT_TTL, ClientCache
from repro.ws.client import WsClient
from repro.ws.router import RequestRouter
from repro.ws.server import SoapFabric, SoapServer
from repro.ws.uddi import UddiRegistry
from repro.ws.uddi_service import UddiInquiryService

__all__ = ["FabricStack", "deploy_fabric"]


class FabricStack:
    """Everything :func:`deploy_fabric` brings up, in one handle.

    ``onserve``, ``soap_server``, ``agent`` and ``portal`` refer to the
    *primary* replica — all a single-appliance consumer needs; the
    fabric surfaces beside them are the replica list, the shared store
    and the router.
    """

    def __init__(self, testbed: Testbed, appliance: DeployedAppliance,
                 fabric: SoapFabric, uddi: UddiRegistry,
                 dbmanager: DbManager, onserves: List[OnServe],
                 router: RequestRouter, store: ServiceStateStore,
                 user_clients: List[WsClient]):
        self.testbed = testbed
        self.sim = testbed.sim
        self.appliance_host = testbed.appliance_host
        self.appliance = appliance
        self.fabric = fabric
        self.uddi = uddi
        self.dbmanager = dbmanager
        #: Every replica's OnServe, primary first.
        self.onserves = onserves
        self.onserve = onserves[0]
        self.soap_server = self.onserve.soap_server
        self.agent = self.onserve.agent
        self.router = router
        self.store = store
        self.user_clients = user_clients
        self.portal = CyberaidePortal(self.onserve)
        # -- self-healing plane (inert until start_self_healing) ------
        self.self_healing = False
        self.heartbeat_interval = 5.0
        self._heartbeats: Dict[str, Process] = {}
        self._unsubscribe_remediation = None
        self._last_remediation = None
        #: (ts, replica, action) remediation log.
        self.remediations: List = []

    @property
    def replica_hosts(self) -> List[Host]:
        return [o.host for o in self.onserves]

    def onserve_for(self, name: str) -> Optional[OnServe]:
        for onserve in self.onserves:
            if onserve.replica == name:
                return onserve
        return None

    # -- self-healing: leases, crash, restart, drain ------------------------

    def start_self_healing(self,
                           heartbeat_interval: Optional[float] = None
                           ) -> "FabricStack":
        """Arm the self-healing plane: leases + membership watchdog.

        Every replica starts a heartbeat process renewing its lease in
        the shared membership table every ``heartbeat_interval``
        (default: a third of the router's ``lease_ttl``, so two beats
        can be lost before the lease lapses), and the router starts the
        lease watchdog that declares lapsed replicas dead.  Requires a
        router constructed with ``self_healing=True`` and a store.
        """
        if self.self_healing:
            return self
        if not self.router.self_healing or self.router.store is None:
            raise OnServeError("self-healing needs a router built with "
                               "self_healing=True and a state store")
        self.heartbeat_interval = (heartbeat_interval
                                   or self.router.lease_ttl / 3.0)
        self.self_healing = True
        for onserve in self.onserves:
            self._start_heartbeat(onserve.replica)
        self.router.start_membership_watch()
        return self

    def stop_self_healing(self) -> None:
        for name, proc in list(self._heartbeats.items()):
            if proc.is_alive:
                proc.interrupt("stop")
        self._heartbeats.clear()
        self.router.stop_membership_watch()
        self.disable_remediation()
        self.self_healing = False

    def _start_heartbeat(self, name: str) -> None:
        self._heartbeats[name] = self.sim.process(
            self._heartbeat(name), name=f"fabric:heartbeat:{name}")

    def _heartbeat(self, name: str) -> Generator[Event, None, None]:
        # Renew-then-sleep: the lease is valid from the first beat, and
        # a killed heartbeat simply stops renewing — the lease lapses
        # on its own and the watchdog declares the death.
        try:
            while True:
                self.store.renew_member(
                    name, self.sim.now + self.router.lease_ttl)
                yield self.sim.timeout(self.heartbeat_interval,
                                       name=f"fabric:heartbeat:{name}")
        except Interrupt:
            return

    def crash_replica(self, name: str) -> int:
        """Kill replica *name* abruptly (fail-stop, no goodbye).

        Models a process crash: the replica refuses new connections,
        its heartbeat stops renewing the lease, and everything the
        router hosts on it dies mid-exchange — requests in flight (the
        router's transport fails those over) and ranges it carries for
        a peer's striped stage (their leader sends those itself).  The
        *router* is not told — it must detect the death through
        transport faults or lease expiry, which is exactly what the
        chaos scenario measures.  Returns how many were killed.
        """
        replica = self.router.replica_handle(name)
        replica.crashed = True
        heartbeat = self._heartbeats.pop(name, None)
        if heartbeat is not None and heartbeat.is_alive:
            heartbeat.interrupt("crash")
        killed = self.router.kill_inflight(name)
        bus(self.sim).emit("fabric.replica_crash", layer="core",
                           replica=name, inflight_killed=killed)
        return killed

    def restart_replica(self, name: str) -> None:
        """Bring a crashed/drained replica back into service.

        The replica is stateless — everything it needs lives in the
        shared DB tier — so restart is: clear the crash flag, rejoin
        the ring, close the breaker, and resume heartbeating.
        """
        self.router.revive_replica(name)
        if self.self_healing:
            self.store.renew_member(name,
                                    self.sim.now + self.router.lease_ttl)
            if name not in self._heartbeats:
                self._start_heartbeat(name)
        bus(self.sim).emit("fabric.replica_restart", layer="core",
                           replica=name)

    def drain_replica(self, name: str, reason: str = "admin") -> Process:
        """Gracefully remove *name*: stop new routes, finish in-flight.

        Returns the drain process; its completion means the replica is
        out of the ring with zero requests in flight, its membership
        lease released and its agent session lease dropped.
        """
        def op() -> Generator[Event, None, None]:
            heartbeat = self._heartbeats.pop(name, None)
            if heartbeat is not None and heartbeat.is_alive:
                heartbeat.interrupt("drain")
            if self.store.member(name) is not None:
                self.store.mark_draining(name)
            drain = self.router.remove_replica(name, reason=reason,
                                               drain=True)
            yield drain
            onserve = self.onserve_for(name)
            if onserve is not None:
                self.store.drop_lease(name, onserve.config.grid_username)

        return self.sim.process(op(), name=f"fabric:drain:{name}")

    # -- SLO-driven remediation ---------------------------------------------

    def enable_remediation(self, tower, cooldown: float = 120.0) -> None:
        """Drain-and-restart the hot replica when the SLO burns.

        Subscribes to ``slo.burn``: when a burn alert fires and the
        control tower's hot-shard detector has a currently-flagged
        replica, that replica is drained (in-flight finishes, no loss)
        and restarted — the simulated equivalent of recycling a sick
        process.  One remediation per *cooldown* seconds, never against
        the last live replica.  This is the one deliberately *active*
        bus subscriber in the stack: it exists to close the loop from
        observation to action, so it is opt-in and detachable.
        """
        if self._unsubscribe_remediation is not None:
            return

        def on_burn(event) -> None:
            if not self.self_healing:
                return
            now = self.sim.now
            if (self._last_remediation is not None
                    and now - self._last_remediation < cooldown):
                return
            detector = getattr(tower, "detector", None)
            target = detector.hot if detector is not None else None
            if target is None or target not in self.router.replicas():
                return
            if len(self.router.replicas()) <= 1:
                return
            self._last_remediation = now
            self.remediations.append((now, target, "drain_restart"))
            bus(self.sim).emit("fabric.remediate", layer="core",
                               replica=target, trigger="slo.burn")
            self.sim.process(self._remediate(target),
                             name=f"fabric:remediate:{target}")

        self._unsubscribe_remediation = bus(self.sim).subscribe(
            on_burn, kinds=("slo.burn",))

    def disable_remediation(self) -> None:
        if self._unsubscribe_remediation is not None:
            self._unsubscribe_remediation()
            self._unsubscribe_remediation = None

    def _remediate(self, name: str) -> Generator[Event, None, None]:
        yield self.drain_replica(name, reason="slo_burn")
        self.restart_replica(name)

    def inquiry_endpoint(self) -> str:
        """Where clients reach the UDDI inquiry service: the router when
        it is enabled (discovery traffic spreads over the replicas
        too), the primary's container otherwise."""
        front = self.router if self.router.enabled else self.soap_server
        return front.endpoint_for(UddiInquiryService.SERVICE_NAME)

    # -- client caches ------------------------------------------------------

    def enable_client_caches(self, ttl: float = DEFAULT_TTL
                             ) -> List[ClientCache]:
        """Attach a discovery/WSDL/stub cache to every user client.

        Each cache subscribes to the shared store — the one place a
        service change is announced (DESIGN.md §9) — so an undeployed
        or replaced service is dropped from every client immediately,
        once per cache, whichever replica made the change.  Returns the
        caches (one per client).

        Idempotent: calling it again *replaces* the previous caches on
        the clients and under their store subscriptions, so repeated
        enabling can never stack stale caches or double-fire
        invalidation.
        """
        caches = []
        for i, client in enumerate(self.user_clients):
            client.cache = cache = ClientCache(self.sim, ttl=ttl)
            # The key is never a replica (host) name, so the fan-out's
            # skip-the-origin rule never skips a cache.
            self.store.subscribe(f"client-cache:{i}",
                                 cache.invalidate_service,
                                 cache.invalidate_service)
            caches.append(cache)
        return caches

    def attach_control_tower(self, specs=(), rules=None,
                             profiler: bool = False, **detector_kwargs):
        """Attach the observability control tower to this fabric.

        Bundles the SLO tracker (over *specs* / *rules*), the
        per-replica fleet rollup, the hot-shard detector scoring load
        against the router's hash ring, and — with ``profiler=True`` —
        the wall-clock kernel profiler.  Pure observation: the tower
        subscribes to the bus and hooks wall-clock timers only, so the
        simulated timeline is untouched (the golden guard attaches one
        to prove it).  Returns the :class:`~repro.telemetry.fleet.
        ControlTower`; call ``close()`` to detach.
        """
        from repro.telemetry.fleet import ControlTower
        from repro.telemetry.profiler import KernelProfiler
        prof = KernelProfiler(self.sim) if profiler else None
        return ControlTower(self.sim, specs=specs, rules=rules,
                            router=self.router, profiler=prof,
                            **detector_kwargs)


def _link_between(testbed: Testbed, a: str, b: str):
    for link in testbed.network.links():
        if {link.a, link.b} == {a, b}:
            return link
    return None


def deploy_fabric(testbed: Testbed,
                  config: Optional[OnServeConfig] = None,
                  dbmanager: Optional[DbManager] = None,
                  replicas: int = 1,
                  router: Optional[bool] = None,
                  spill_threshold: int = 4,
                  self_healing: bool = False,
                  lease_ttl: float = 15.0,
                  lease_check_interval: float = 5.0,
                  fault_threshold: int = 2,
                  shed_limit: Optional[int] = None,
                  backpressure_threshold: Optional[int] = None) -> Process:
    """Deploy onServe onto *testbed* (a sim process) — the one deployer.

    The process-event's value is a :class:`FabricStack`.  The defaults
    (``replicas=1``, router off) are the paper's single virtual
    appliance (§V): no extra hosts, and a *disabled* router ringed on
    the appliance host itself, which owns no endpoint and routes
    nothing.  ``router=None`` enables the router automatically when
    ``replicas > 1``.  Passing a *dbmanager* (e.g. one recovered with
    :meth:`~repro.db.dbmanager.DbManager.recover_from_crash`) redeploys
    over existing data: every stored executable's service is rebuilt
    and republished automatically.

    With ``self_healing=True`` (routed deployments) the stack arms the
    lease/failover plane after deployment: replicas heartbeat their
    membership leases into the shared store, the router watches for
    expiry and dedups failover replays, and the
    ``shed_limit``/``backpressure_threshold`` overload ladder guards
    admission (DESIGN.md §13).
    """
    if replicas < 1:
        raise OnServeError("replicas must be >= 1")
    config = config or OnServeConfig()
    router_on = (replicas > 1) if router is None else bool(router)
    if self_healing and not router_on:
        raise OnServeError("self-healing needs the router enabled")
    sim = testbed.sim

    def op() -> Generator[Event, None, FabricStack]:
        network = testbed.network
        primary = testbed.appliance_host

        # Replica hosts clone the primary's hardware and connectivity:
        # each gets its own thin WAN uplink (the per-appliance 85 KB/s
        # pipe is exactly what sharding multiplies) and LAN links to the
        # users, the router and every other replica (a range of a
        # striped stage crosses to the peer that carries it; the
        # shortest path used to be the two thin uplinks).  Multi-hop
        # through the primary would funnel everything back through one
        # uplink.
        uplink = _link_between(testbed, primary.name, "wan-core")
        lan = (_link_between(testbed, testbed.user_hosts[0].name,
                             primary.name)
               if testbed.user_hosts else None)
        lan_bw = lan.bandwidth if lan is not None else Gbps(1)
        lan_lat = lan.latency if lan is not None else 0.0005
        hosts: List[Host] = [primary]
        for i in range(2, replicas + 1):
            host = Host(sim, f"appliance{i:02d}", network, primary.spec)
            network.connect(host.name, "wan-core",
                            bandwidth=uplink.bandwidth,
                            latency=uplink.latency)
            for peer in testbed.user_hosts + hosts:
                network.connect(peer.name, host.name, bandwidth=lan_bw,
                                latency=lan_lat)
            hosts.append(host)
        if replicas == 1 and not router_on:
            # The single appliance: its (disabled) router needs no host
            # of its own, so the paper's topology gains nothing.
            router_host = primary
        else:
            router_host = Host(sim, "router", network, HostSpec(cores=4))
            for peer in hosts + testbed.user_hosts:
                network.connect(router_host.name, peer.name,
                                bandwidth=lan_bw, latency=lan_lat)

        # 1. One appliance image (the rBuilder step), deployed onto
        #    every replica host in parallel (on-demand deployment).
        builder = ImageBuilder()
        for package in ONSERVE_PACKAGES():
            builder.provide(package)
        image = builder.build("cyberaide-onserve", ["cyberaide-onserve"])
        deploys = [deploy_image(image, host) for host in hosts]
        results = yield sim.all_of(deploys)
        appliances: List[DeployedAppliance] = [results[p] for p in deploys]

        # 2. The shared tiers: endpoint fabric, UDDI, DB + state store.
        fabric = SoapFabric()
        uddi = UddiRegistry()
        db = dbmanager if dbmanager is not None else DbManager(
            primary, tier=config.db_tier)
        store = ServiceStateStore(db.db, read_router=db.read_router)

        # 3. Enrol the grid identity (certificate -> MyProxy ->
        #    gridmaps), the once-per-user out-of-band step — replicas
        #    share the onserve principal.
        testbed.new_grid_identity(config.grid_username,
                                  config.grid_passphrase)

        # 4. Per-replica software stack; the registry's inquiry API and
        #    the management API are web services of their own (jUDDI
        #    inquiry / portal management).
        from repro.core.management import ManagementService
        onserves: List[OnServe] = []
        servers: List[SoapServer] = []
        for host in hosts:
            soap_server = SoapServer(host, fabric)
            agent = CyberaideAgent(
                host, testbed,
                AgentConfig(status_supported=config.status_supported,
                            session_reuse=config.datapath))
            soap_server.deploy(agent.service_description(), agent.handler)
            onserve = OnServe(host, soap_server, fabric, uddi, db, agent,
                              config, store=store)
            inquiry = UddiInquiryService(uddi)
            soap_server.deploy(inquiry.service_description(),
                               inquiry.handler)
            management = ManagementService(onserve)
            soap_server.deploy(management.service_description(),
                               management.handler)
            onserves.append(onserve)
            servers.append(soap_server)

        if config.notify:
            # Push path: one durable notification queue over the DB
            # tier, shared by every replica; each gatekeeper attached
            # with its site's capability (heterogeneous on purpose —
            # sites outside notify_sites keep the poll ladder).
            from repro.grid.notify import NotifyQueue
            queue = NotifyQueue(sim, db.db,
                                propagation=config.notify_propagation,
                                read_router=db.read_router)
            for name, gatekeeper in testbed.gatekeepers.items():
                gatekeeper.attach_notify(
                    queue, capable=("*" in config.notify_sites
                                    or name in config.notify_sites))
            for onserve in onserves:
                onserve.notify_queue = queue

        # 5. The router over all replicas.  Disabled, it is constructed
        #    and ringed but stays out of the endpoint fabric.
        request_router = RequestRouter(
            router_host, fabric, enabled=router_on,
            spill_threshold=spill_threshold,
            breaker_failure_threshold=config.breaker_failure_threshold,
            store=store if self_healing else None,
            self_healing=self_healing,
            lease_ttl=lease_ttl,
            lease_check_interval=lease_check_interval,
            fault_threshold=fault_threshold,
            shed_limit=shed_limit,
            backpressure_threshold=backpressure_threshold)
        for onserve, server in zip(onserves, servers):
            request_router.add_replica(onserve.replica, server, onserve)
            onserve.router = request_router

        user_clients = [WsClient(host, fabric)
                        for host in testbed.user_hosts]
        if dbmanager is not None:
            # Redeployment over recovered data: the primary rebuilds the
            # published surface; other replicas materialize on demand.
            yield onserves[0].restore_services()
        stack = FabricStack(testbed, appliances[0], fabric, uddi, db,
                            onserves, request_router, store, user_clients)
        if self_healing:
            stack.start_self_healing()
        return stack

    return sim.process(op(), name="deploy-fabric")
