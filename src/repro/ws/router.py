"""The request router: one endpoint fronting N onServe replicas.

The appliance sharding story (DESIGN.md §11): instead of one virtual
appliance owning every SOAP dispatch, N stateless replicas share the DB
tier and the UDDI registry, and a :class:`RequestRouter` on its own host
is the single endpoint clients resolve.  Placement is a consistent-hash
ring over service names (:class:`HashRing`), so a service's requests
normally land on one replica — keeping its materialized runtime, staged
copies and agent session warm — while replica join/leave moves only
``1/N`` of the keyspace.

Two deviations from the hash owner are allowed, in order:

* **breaker-aware skip** — each replica has a circuit breaker; an open
  circuit removes it from the candidate walk until the reset timeout,
  so requests do not queue behind a dead replica, and
* **least-loaded spill** — when the owner already has
  :attr:`RequestRouter.spill_threshold` requests in flight, the request
  goes to the least-loaded live candidate instead (ties broken by ring
  preference, keeping the choice deterministic).

The router is itself a fabric target: it has a ``host``, a ``wsdl``
and a ``transport``, so :class:`~repro.ws.client.WsClient` talks to it
exactly as it would to a :class:`~repro.ws.server.SoapServer` — the
extra hop is two real envelope transfers (client↔router) plus a small
routing CPU charge, which ``ScaleoutResult.ok`` (scenarios/scaleout.py)
bounds below 5% at ``replicas=1``.  A router, once built, owns its
endpoint: the single appliance builds none.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right, insort
from typing import (
    Any, Dict, Generator, List, Optional, Sequence, Tuple,
)

from repro.core.context import RequestContext, span
from repro.errors import (
    ReplicaDown, ServiceNotFound, WsError, is_retryable,
)
from repro.hardware.host import Host
from repro.resilience.breaker import OPEN, BreakerBoard
from repro.resilience.retry import RetryPolicy
from repro.simkernel.events import Event
from repro.simkernel.process import Interrupt, Process
from repro.telemetry.events import bus
from repro.telemetry.gauges import Gauge, gauges
from repro.ws.pipeline import soap_fault
from repro.ws.server import SoapFabric, SoapServer
from repro.ws.soap import SoapEnvelope

__all__ = ["HashRing", "RequestRouter", "Replica"]


class HashRing:
    """A consistent-hash ring with virtual nodes (deterministic).

    Keys and nodes hash through SHA-1, so placement is stable across
    runs and processes — no dependence on Python's seeded ``hash()``.
    With ``vnodes`` virtual points per node, removing one node of N
    reassigns only ~``1/N`` of the keyspace, which the router tests
    assert directly.
    """

    def __init__(self, vnodes: int = 64):
        if vnodes < 1:
            raise WsError("vnodes must be >= 1")
        self.vnodes = vnodes
        #: Sorted (point, node) pairs — the ring.
        self._points: List[Tuple[int, str]] = []
        self._nodes: Dict[str, bool] = {}
        #: key -> its walk of the ring, valid until membership changes.
        self._walks: Dict[str, List[str]] = {}

    @staticmethod
    def _hash(key: str) -> int:
        return int(hashlib.sha1(key.encode()).hexdigest()[:16], 16)

    def add(self, node: str) -> None:
        if node in self._nodes:
            raise WsError(f"node {node!r} already on the ring")
        self._nodes[node] = True
        self._walks.clear()
        for i in range(self.vnodes):
            insort(self._points, (self._hash(f"{node}#{i}"), node))

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            raise WsError(f"node {node!r} not on the ring")
        del self._nodes[node]
        self._walks.clear()
        self._points = [(p, n) for p, n in self._points if n != node]

    def __len__(self) -> int:
        return len(self._nodes)

    #: Size of the hash space (16 hex digits of SHA-1 = 64 bits).
    SPACE = 1 << 64

    def ownership(self) -> Dict[str, float]:
        """node -> fraction of the keyspace its arcs cover.

        Point ``p_i`` owns the arc ``(p_{i-1}, p_i]`` (keys map to the
        first point clockwise), so summing each node's arcs — including
        the wrap-around arc to the first point — yields its expected
        share of *uniformly distributed* keys.  The hot-shard detector
        scores observed load against this, so popularity skew stands
        out from mere vnode placement unevenness.  Fractions sum to 1.
        """
        if not self._points:
            return {}
        out: Dict[str, float] = {node: 0.0 for node in self._nodes}
        prev = self._points[-1][0] - self.SPACE
        for point, node in self._points:
            out[node] += (point - prev) / self.SPACE
            prev = point
        return out

    def owner(self, key: str) -> str:
        """The node owning *key* (first point clockwise of its hash)."""
        walk = self._walk(key)
        if not walk:
            raise WsError("hash ring is empty")
        return walk[0]

    def preference(self, key: str) -> List[str]:
        """Every node, ordered by ring distance from *key*.

        The head is the owner; the tail is the fallback walk order used
        when breakers skip nodes or load spills requests over.
        """
        return list(self._walk(key))

    def _walk(self, key: str) -> List[str]:
        """The preference order of *key*: a pure function of (key,
        membership), so it is walked once per key between ``add`` /
        ``remove`` calls.  The list is shared — callers must copy."""
        seen = self._walks.get(key)
        if seen is None:
            points = self._points
            start = bisect_right(points, (self._hash(key), chr(0x10FFFF)))
            seen = self._walks[key] = []
            for i in range(len(points)):
                node = points[(start + i) % len(points)][1]
                if node not in seen:
                    seen.append(node)
                    if len(seen) == len(self._nodes):
                        break
        return seen


class Replica:
    """One onServe replica as the router sees it: the one record of its
    routing and liveness state, parked with it when it leaves the ring."""

    __slots__ = ("name", "server", "onserve", "crashed", "inflight",
                 "generation", "gauge", "procs", "faults", "lease_expires",
                 "epoch", "heartbeat")

    def __init__(self, name: str, server: SoapServer, onserve,
                 gauge: Gauge):
        self.name = name
        self.server = server
        self.onserve = onserve
        #: The connection's view of a dead process: a crashed replica
        #: refuses dispatches (the router only *learns* of the death
        #: through transport faults and lease expiry — this flag models
        #: the refused TCP connection, not router knowledge).
        self.crashed = False
        #: Requests in flight, mirrored into its ``router.inflight`` gauge.
        self.inflight = 0
        #: Removals so far: each clears :attr:`inflight`, so a request
        #: admitted before one is not counted any more.
        self.generation = 0
        self.gauge = gauge
        #: What :meth:`RequestRouter.run_on` hosts here, in admission
        #: order (a dict as an ordered set): a crash must interrupt them
        #: in the same order on every run.
        self.procs: Dict[Process, None] = {}
        #: Consecutive transport faults.
        self.faults = 0
        #: The lease's expiry (None while unleased), the incarnation
        #: holding it, and the heartbeat process renewing it.
        self.lease_expires: Optional[float] = None
        self.epoch = 0
        self.heartbeat: Optional[Process] = None

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<Replica {self.name!r}>"


class RequestRouter:
    """Consistent-hash request routing over onServe replicas."""

    #: CPU seconds to route one request (hash + table lookup + proxying
    #: bookkeeping) — deliberately far below the container's own
    #: PARSE+DISPATCH cost so the router never becomes the bottleneck.
    ROUTE_CPU = 0.002

    #: Seconds an open replica circuit stays open.
    BREAKER_RESET_TIMEOUT = 60.0

    # The three lower-case settings below are plain class attributes
    # a test may shadow on one router instance.

    #: Requests in flight on the hash owner at which the next one
    #: spills to the least-loaded live candidate.
    spill_threshold = 4
    #: Consecutive transport faults that declare a replica dead ahead
    #: of its lease expiry.
    fault_threshold = 2
    #: How a request crashed off a replica backs off and walks on.
    failover_policy = RetryPolicy(max_attempts=3, base_delay=0.25,
                                  multiplier=2.0, max_delay=2.0)

    def __init__(self, host: Host, fabric: Optional[SoapFabric] = None,
                 breaker_failure_threshold: int = 3,
                 lease_ttl: float = 15.0,
                 lease_check_interval: float = 5.0):
        self.host = host
        self.sim = host.sim
        self.ring = HashRing()
        #: The routable replicas' records.
        self._replicas: Dict[str, Replica] = {}
        #: Per-replica circuit breakers: an open circuit drops the
        #: replica from the candidate walk until the reset timeout.
        self.breakers = BreakerBoard(
            self.sim, failure_threshold=breaker_failure_threshold,
            reset_timeout=self.BREAKER_RESET_TIMEOUT)
        self.requests_routed = 0
        self.rebalances = 0
        self.bus = bus(self.sim)
        board = gauges(self.sim)
        self._queue_gauge = board.gauge("router.queue", unit="reqs")
        self._board = board
        # -- failover, self-healing ----------------------------------
        # Every routed request fails over off a crashed replica; leases
        # live on the replica records.  The constructor creates zero
        # simulation events (the watchdog only starts via
        # start_membership_watch).
        if lease_ttl <= 0 or lease_check_interval <= 0:
            raise WsError("lease_ttl and lease_check_interval must be > 0")
        self.lease_ttl = lease_ttl
        self.lease_check_interval = lease_check_interval
        #: The last lease epoch handed out, router-wide.
        self._epoch = 0
        #: Replicas out of the ring (declared dead or removed).
        self._parked: Dict[str, Replica] = {}
        self._watchdog: Optional[Process] = None
        #: (ts, replica, reason) death declarations, in order.
        self.deaths: List[Tuple[float, str, str]] = []
        self.failovers = 0
        self.fabric = fabric
        if fabric is not None:
            fabric.register(self)

    # -- replica membership ----------------------------------------------------

    def add_replica(self, name: str, server: SoapServer,
                    onserve=None) -> None:
        if name in self._replicas:
            raise WsError(f"replica {name!r} already registered")
        self._parked.pop(name, None)
        self._replicas[name] = Replica(
            name, server, onserve, self._board.gauge(
                "router.inflight", unit="reqs", labels={"replica": name}))
        self.ring.add(name)

    def remove_replica(self, name: str, reason: str = "admin") -> None:
        """Take *name* out of the routing set, at once, and park it.

        Removal also clears the replica's share of the router gauges —
        its per-replica inflight gauge drops to zero and the aggregate
        queue gauge loses its in-flight count — so a removed replica
        never lingers as a ghost in telemetry — and its fault count and
        lease.  A ``router.rebalance`` event records the change.
        """
        replica = self._replicas.pop(name, None)
        if replica is None:
            raise WsError(f"replica {name!r} not registered")
        self._parked[name] = replica
        self.ring.remove(name)
        inflight, replica.inflight = replica.inflight, 0
        replica.generation += 1
        if inflight:
            self._queue_gauge.adjust(-inflight)
        replica.gauge.set(0)
        replica.faults = 0
        replica.lease_expires = None
        self._count_rebalance()
        self.bus.emit("router.rebalance", layer="ws", replica=name,
                      reason=f"remove:{reason}", inflight=inflight,
                      replicas=len(self.ring))

    def _declare_dead(self, replica: Replica, reason: str) -> None:
        """Declare a routable *replica* dead: un-route and park it."""
        self.deaths.append((self.sim.now, replica.name, reason))
        self.bus.emit("router.replica_dead", layer="ws",
                      replica=replica.name, reason=reason,
                      survivors=len(self.ring) - 1)
        self.remove_replica(replica.name, reason=reason)

    def revive_replica(self, name: str) -> None:
        """Bring *name* back into service.

        A parked replica rejoins the ring.  Every call — also for a
        replica still routable because its restart raced the death
        detection — clears the crash flag, the transport-fault count and
        the circuit breaker, so the fresh process is not refused for
        its predecessor's death.
        """
        replica = self._replicas.get(name)
        rejoined = replica is None
        if rejoined:
            replica = self._parked.pop(name, None)
            if replica is None:
                raise WsError(f"replica {name!r} was never registered")
            self._replicas[name] = replica
            self.ring.add(name)
        replica.crashed = False
        replica.faults = 0
        self.breakers.reset(name)
        if rejoined:
            self._count_rebalance()
            self.bus.emit("router.rebalance", layer="ws", replica=name,
                          reason="revive", replicas=len(self.ring))

    def _count_rebalance(self) -> None:
        self.rebalances += 1
        self._board.gauge("router.rebalances").set(self.rebalances)

    def replica_handle(self, name: str) -> Replica:
        """The Replica record for *name*, routable or parked."""
        replica = self._replicas.get(name) or self._parked.get(name)
        if replica is None:
            raise WsError(f"replica {name!r} not registered")
        return replica

    def run_on(self, name: str, work: Generator, label: str) -> Process:
        """Run *work* as a process replica *name* hosts: a proxied
        request, or a peer's share of a striped stage.  It dies with the
        replica — :meth:`kill_inflight` interrupts it, in the order the
        work was admitted."""
        procs = self.replica_handle(name).procs
        proc = self.sim.process(work, name=label)
        procs[proc] = None
        proc.add_callback(lambda _done: procs.pop(proc, None))
        return proc

    def peers(self, name: str) -> List[Replica]:
        """The routable replicas beside *name* whose circuit is not
        open, by name from *name*'s successor round (so neighbouring
        replicas lean on different peers first)."""
        names = sorted(self._replicas)
        if name not in names:
            return []
        at = names.index(name)
        states = self.breakers.states()
        return [self._replicas[n] for n in names[at + 1:] + names[:at]
                if states.get(n) != OPEN]

    def kill_inflight(self, name: str) -> int:
        """Interrupt everything :meth:`run_on` hosts on *name*.

        Called by the crash path: each tracked process receives an
        :class:`Interrupt` whose cause is a :class:`ReplicaDown`, which
        :meth:`transport` converts into a failover retry (and a striped
        stage into a range its leader sends itself).  Returns how many
        were interrupted.
        """
        replica = self.replica_handle(name)
        procs, replica.procs = replica.procs, {}
        killed = 0
        for proc in list(procs):
            if proc.is_alive:
                proc.interrupt(ReplicaDown(
                    f"replica {name!r} crashed mid-request"))
                killed += 1
        return killed

    def replicas(self) -> List[str]:
        return sorted(self._replicas)

    def inflight(self, name: str) -> int:
        replica = self._replicas.get(name)
        return replica.inflight if replica is not None else 0

    # -- lease-based membership --------------------------------------------------

    def renew_lease(self, name: str, expires: float) -> None:
        """Renew routable replica *name*'s lease to *expires* (heartbeat).

        A replica leased afresh — its first beat, or its first since a
        death or removal dropped the lease — takes the next epoch, so a
        restart is told from a slow heartbeat.  A parked or unknown
        replica's renewal is ignored: only a revival brings one back.
        """
        replica = self._replicas.get(name)
        if replica is None:
            return
        if replica.lease_expires is None:
            self._epoch += 1
            replica.epoch = self._epoch
        replica.lease_expires = expires

    def start_membership_watch(self) -> Process:
        """Start the lease watchdog.

        The watchdog scans the routable replicas, by name, every
        ``lease_check_interval`` seconds and declares any whose lease
        expired dead — the slow path that catches replicas which died
        quietly (no traffic, so no transport faults to count).
        """
        if self._watchdog is not None and self._watchdog.is_alive:
            return self._watchdog
        self._watchdog = self.sim.process(
            self._membership_watch(), name="router:membership-watch")
        return self._watchdog

    def stop_membership_watch(self) -> None:
        if self._watchdog is not None and self._watchdog.is_alive:
            self._watchdog.interrupt("stop")
        self._watchdog = None

    def _membership_watch(self) -> Generator[Event, None, None]:
        try:
            while True:
                yield self.sim.timeout(self.lease_check_interval,
                                       name="router:lease-check")
                now = self.sim.now
                for name in sorted(self._replicas):
                    replica = self._replicas[name]
                    if (replica.lease_expires is not None
                            and replica.lease_expires <= now):
                        self._declare_dead(replica, "lease_expired")
        except Interrupt:
            return

    def _note_transport_fault(self, replica: Replica) -> None:
        """Count a transport-level fault against *replica* (fast path).

        :attr:`fault_threshold` consecutive transport faults declare the
        replica dead without waiting out the lease — the fast path for
        replicas that die under traffic.
        """
        replica.faults += 1
        if (replica.faults >= self.fault_threshold
                and self._replicas.get(replica.name) is replica):
            self._declare_dead(replica, "transport_faults")

    # -- fabric-target surface (what WsClient needs) -----------------------------

    def endpoint_for(self, service_name: str) -> str:
        return f"{SoapFabric.SCHEME}{self.host.name}/{service_name}"

    def wsdl(self, service_name: str) -> bytes:
        """The service's WSDL, advertising the *router* endpoint.

        The interface description comes from whichever replica holds
        the deployed service; the endpoint is rewritten to the router's
        so wsimport-generated stubs route instead of pinning a replica.
        """
        order = self.ring.preference(service_name) or self.replicas()
        for name in order:
            try:
                svc = self._replicas[name].server.service(service_name)
            except ServiceNotFound:
                continue
            return svc.wsdl(self.endpoint_for(service_name))
        raise ServiceNotFound(
            f"service {service_name!r} not deployed on any replica")

    # -- routing -----------------------------------------------------------------

    def choose(self, service_name: str,
               exclude: Sequence[str] = ()) -> Replica:
        """Pick the replica for one request (pure decision, no events).

        Hash owner first; breaker-open replicas are skipped; an
        overloaded owner spills to the least-loaded live candidate
        (ties broken by ring preference, so the choice is a pure
        function of ring + breakers + inflight counts).  *exclude*
        drops replicas this request already failed against, so a
        failover retry walks the preference list forward instead of
        re-dialing the corpse.
        """
        order = self.ring.preference(service_name)
        if not order:
            raise WsError("router has no replicas")
        live = [n for n in order
                if self.breakers.allow(n) and n not in exclude]
        if not live:
            raise WsError(
                f"no live replica for {service_name!r} "
                f"({len(order)} registered, all circuits open)")
        replicas = self._replicas
        owner = chosen = replicas[live[0]]
        if owner.inflight >= self.spill_threshold:
            # The first least-loaded in preference order.
            for name in live[1:]:
                if replicas[name].inflight < chosen.inflight:
                    chosen = replicas[name]
        if chosen is not owner or owner.name != order[0]:
            # Deviated from the pure hash owner: spilled on load and/or
            # skipped an open breaker.
            self._count_rebalance()
            self.bus.emit("router.rebalance", layer="ws",
                          service=service_name, owner=order[0],
                          chosen=chosen.name,
                          reason=("breaker" if owner.name != order[0]
                                  else "load"))
        return chosen

    def transport(self, client: Host, service_name: str, operation: str,
                  params: Dict[str, Any],
                  ctx: Optional[RequestContext] = None,
                  ) -> Generator[Event, None, Any]:
        """The routed wire round-trip (client ↔ router ↔ replica).

        Mirrors :meth:`SoapServer.transport`'s contract so WsClient and
        generated stubs work unchanged: the request envelope travels
        client→router, the router charges its routing CPU, picks a
        replica, (lazily) materializes the service there, forwards the
        same envelope over the router↔replica links, and relays the
        replica's response — or fault — envelope back to the client.
        Each direction's envelope is built and sized once; only a fault
        of the router's own builds one here.  The replica dispatch runs
        in a sub-process the crash path can interrupt, and a
        :class:`ReplicaDown` (refused connection or mid-request
        interrupt) fails over to the next preference-list survivor under
        the failover :class:`RetryPolicy` — every operation alike.
        """
        request = SoapEnvelope.request(operation, params,
                                       namespace=f"urn:repro:{service_name}")
        # The hop span brackets the *entire* routed exchange — request
        # envelope in, routing decision, proxied call, response (or
        # fault) relay out — so every replica-side span nests under one
        # parent and a cross-replica trace reads as a single tree.
        with span(ctx, "router:hop", router=self.host.name,
                  service=service_name) as hop:
            yield client.send(self.host, request.size(),
                              label=f"route-req:{service_name}.{operation}")
            yield self.host.compute(self.ROUTE_CPU)
            self.requests_routed += 1
            rng = self.sim.rng.stream("router:failover")
            tried: List[str] = []
            attempt = 0
            while True:
                try:
                    replica = self.choose(service_name, exclude=tried)
                except WsError as exc:
                    fault = soap_fault(ReplicaDown(
                        f"no live replica left for {service_name!r}: {exc}"))
                    yield from self._relay_fault(
                        client, service_name, operation,
                        SoapEnvelope.fault_response(fault))
                    raise fault
                if hop is not None:
                    hop.meta["replica"] = replica.name
                generation = self._admit(replica)
                proc = self.run_on(
                    replica.name,
                    self._proxy(replica, service_name, request, ctx),
                    f"router:proxy:{service_name}.{operation}")
                crash: Optional[ReplicaDown] = None
                try:
                    response = yield proc
                except Interrupt as intr:
                    cause = intr.cause
                    if not isinstance(cause, ReplicaDown):
                        raise
                    crash = cause
                except ReplicaDown as exc:
                    crash = exc
                else:
                    fault = response.fault
                    if fault is not None:
                        # Application-level fault: the replica answered,
                        # so it is alive — relay its fault envelope,
                        # never fail over on it.
                        if is_retryable(fault):
                            self.breakers.failure(replica.name)
                        else:
                            self.breakers.success(replica.name)
                        replica.faults = 0
                        yield from self._relay_fault(client, service_name,
                                                     operation, response)
                        raise fault
                finally:
                    self._release(replica, generation)
                if crash is None:
                    self.breakers.success(replica.name)
                    replica.faults = 0
                    break
                # Crash signal: count it (fault_threshold consecutive
                # faults declare the replica dead ahead of lease
                # expiry), then walk the preference list forward.
                self.breakers.failure(replica.name)
                self._note_transport_fault(replica)
                tried.append(replica.name)
                attempt += 1
                if attempt >= self.failover_policy.max_attempts:
                    fault = soap_fault(ReplicaDown(
                        f"request failed over {attempt} times "
                        f"(last: {crash})"))
                    yield from self._relay_fault(
                        client, service_name, operation,
                        SoapEnvelope.fault_response(fault))
                    raise fault
                self.failovers += 1
                self.bus.emit("router.failover", layer="ws",
                              service=service_name, operation=operation,
                              from_replica=replica.name, attempt=attempt)
                yield self.sim.timeout(
                    self.failover_policy.backoff(attempt, rng=rng),
                    name="router:failover-backoff")
            yield self.host.send(client, response.size(),
                                 label=f"route-rsp:{service_name}.{operation}")
        return response.result()

    def _proxy(self, replica: Replica, service_name: str,
               request: SoapEnvelope, ctx: Optional[RequestContext]
               ) -> Generator[Event, None, SoapEnvelope]:
        """One dispatch attempt against one replica (interruptible): the
        value is the replica's response or fault envelope.

        Runs as its own process so :meth:`kill_inflight` can interrupt
        it when the replica crashes.  A replica that already crashed
        refuses the connection outright.
        """
        if replica.crashed:
            raise ReplicaDown(f"connection refused by {replica.name!r}")
        with span(ctx, "router:route", replica=replica.name,
                  service=service_name):
            if replica.onserve is not None:
                yield from replica.onserve.ensure_local_service(
                    service_name, ctx)
            return (yield from replica.server.exchange(
                self.host, request, service_name, ctx))

    # -- admission helpers --------------------------------------------------------

    def _admit(self, replica: Replica) -> int:
        """Count one request into *replica*'s admission queue (gauges);
        the value is the generation :meth:`_release` must be handed."""
        replica.inflight += 1
        self._queue_gauge.adjust(1)
        replica.gauge.set(replica.inflight)
        return replica.generation

    def _release(self, replica: Replica, generation: int) -> None:
        """Undo :meth:`_admit` — tolerant of a removal in between.

        A removal (a crash declared, or an admin removal) clears the
        replica's counts and starts a new generation; a request admitted
        under an older one — even if the replica was revived before it
        unwound — was already cleared, so its release is a no-op.
        """
        if replica.generation != generation:
            return
        replica.inflight -= 1
        self._queue_gauge.adjust(-1)
        replica.gauge.set(replica.inflight)

    def _relay_fault(self, client: Host, service_name: str, operation: str,
                     envelope: SoapEnvelope) -> Generator[Event, None, None]:
        yield self.host.send(client, envelope.size(),
                             label=f"route-fault:{service_name}"
                                   f".{operation}")

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (f"<RequestRouter replicas={self.replicas()} "
                f"routed={self.requests_routed} "
                f"rebalances={self.rebalances}>")
