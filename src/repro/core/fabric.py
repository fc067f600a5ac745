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
arguments (``replicas=1``, router off): no clone hosts and no router
(``stack.router is None``), so the faithful timeline the goldens pin
has nothing to see.
:func:`~repro.core.onserve.deploy_onserve` is exactly that call.
"""

from __future__ import annotations

from typing import Generator, List, Optional

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
    and the router (None on an unrouted stack).
    """

    def __init__(self, testbed: Testbed, appliance: DeployedAppliance,
                 fabric: SoapFabric, uddi: UddiRegistry,
                 dbmanager: DbManager, onserves: List[OnServe],
                 router: Optional[RequestRouter], store: ServiceStateStore,
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

    def onserve_for(self, name: str) -> Optional[OnServe]:
        for onserve in self.onserves:
            if onserve.replica == name:
                return onserve
        return None

    # -- self-healing: leases, crash, restart --------------------------------

    def _routed(self, what: str) -> RequestRouter:
        if self.router is None:
            raise OnServeError(f"{what} needs a routed fabric")
        return self.router

    def start_self_healing(self,
                           heartbeat_interval: Optional[float] = None
                           ) -> "FabricStack":
        """Arm the self-healing plane: leases + membership watchdog.

        Every replica starts a heartbeat process renewing its lease on
        the router every ``heartbeat_interval`` (default: a third of the
        router's ``lease_ttl``, so two beats can be lost before the
        lease lapses), and the router starts the lease watchdog that
        declares lapsed replicas dead.
        """
        router = self._routed("self-healing")
        if self.self_healing:
            return self
        self.heartbeat_interval = (heartbeat_interval
                                   or router.lease_ttl / 3.0)
        self.self_healing = True
        for onserve in self.onserves:
            self._start_heartbeat(onserve.replica)
        router.start_membership_watch()
        return self

    def stop_self_healing(self) -> None:
        if not self.self_healing:
            return
        for onserve in self.onserves:
            self._stop_heartbeat(onserve.replica, "stop")
        self.router.stop_membership_watch()
        self.self_healing = False

    def _start_heartbeat(self, name: str) -> None:
        self.router.replica_handle(name).heartbeat = self.sim.process(
            self._heartbeat(name), name=f"fabric:heartbeat:{name}")

    def _stop_heartbeat(self, name: str, cause: str) -> None:
        replica = self.router.replica_handle(name)
        heartbeat, replica.heartbeat = replica.heartbeat, None
        if heartbeat is not None and heartbeat.is_alive:
            heartbeat.interrupt(cause)

    def _heartbeat(self, name: str) -> Generator[Event, None, None]:
        # Renew-then-sleep: the lease is valid from the first beat, and
        # a killed heartbeat simply stops renewing — the lease lapses
        # on its own and the watchdog declares the death.
        try:
            while True:
                self.router.renew_lease(
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
        router's transport fails those over), ranges it carries for a
        peer's striped stage (their leader sends those itself) and the
        seeds it runs, each of which ends its own marker as it unwinds
        so that invocations waiting on it stage for themselves.  The
        *router* is not told — it must detect the death through
        transport faults or lease expiry, which is exactly what the
        chaos scenario measures.  Returns how many were killed.
        """
        router = self._routed("a replica crash")
        router.replica_handle(name).crashed = True
        self._stop_heartbeat(name, "crash")
        killed = router.kill_inflight(name)
        bus(self.sim).emit("fabric.replica_crash", layer="core",
                           replica=name, inflight_killed=killed)
        return killed

    def restart_replica(self, name: str) -> None:
        """Bring a crashed replica back into service.

        The replica is stateless — everything it needs lives in the
        shared DB tier — so restart is: clear the crash flag and the
        fault count, rejoin the ring if the death was declared, close
        the breaker, and resume heartbeating.
        """
        router = self._routed("a replica restart")
        router.revive_replica(name)
        if self.self_healing:
            router.renew_lease(name, self.sim.now + router.lease_ttl)
            if router.replica_handle(name).heartbeat is None:
                self._start_heartbeat(name)
        bus(self.sim).emit("fabric.replica_restart", layer="core",
                           replica=name)

    def inquiry_endpoint(self) -> str:
        """Where clients reach the UDDI inquiry service: the router on a
        routed fabric (discovery traffic spreads over the replicas
        too), the primary's container otherwise."""
        front = self.router or self.soap_server
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
                  self_healing: bool = False,
                  lease_ttl: float = 15.0,
                  lease_check_interval: float = 5.0) -> Process:
    """Deploy onServe onto *testbed* (a sim process) — the one deployer.

    The process-event's value is a :class:`FabricStack`.  The defaults
    (``replicas=1``, router off) are the paper's single virtual
    appliance (§V): no extra hosts and no router.  ``router=None``
    builds the router automatically when
    ``replicas > 1``.  Passing a *dbmanager* (e.g. one recovered with
    :meth:`~repro.db.dbmanager.DbManager.recover_from_crash`) redeploys
    over existing data: every stored executable's service is rebuilt
    and republished automatically.

    With ``self_healing=True`` (routed deployments) the stack arms the
    lease/failover plane after deployment: replicas heartbeat their
    membership leases to the router, which watches for expiry and fails
    requests over off a dead replica (DESIGN.md §13).
    """
    if replicas < 1:
        raise OnServeError("replicas must be >= 1")
    config = config or OnServeConfig()
    router_on = (replicas > 1) if router is None else bool(router)
    if self_healing and not router_on:
        raise OnServeError("self-healing needs a routed fabric")
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
        if router_on:
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
        store = ServiceStateStore(db.db)

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
            # Push path: one notification queue over the DB tier,
            # shared by every replica; each gatekeeper attached
            # with its site's capability (heterogeneous on purpose —
            # sites outside notify_sites keep the poll ladder).
            from repro.grid.notify import NotifyQueue
            queue = NotifyQueue(sim, db.db,
                                propagation=config.notify_propagation)
            for name, gatekeeper in testbed.gatekeepers.items():
                gatekeeper.attach_notify(
                    queue, capable=("*" in config.notify_sites
                                    or name in config.notify_sites))
            for onserve in onserves:
                onserve.notify_queue = queue

        # 5. The router over all replicas, on a routed fabric only.
        request_router = None
        if router_on:
            request_router = RequestRouter(
                router_host, fabric,
                breaker_failure_threshold=config.breaker_failure_threshold,
                lease_ttl=lease_ttl,
                lease_check_interval=lease_check_interval)
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
