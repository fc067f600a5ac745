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
  ``spill_threshold`` requests in flight, the request goes to the
  least-loaded live candidate instead (ties broken by ring preference,
  keeping the choice deterministic).

The router is itself a fabric target: it has a ``host``, a ``wsdl``
and a ``transport``, so :class:`~repro.ws.client.WsClient` talks to it
exactly as it would to a :class:`~repro.ws.server.SoapServer` — the
extra hop is two real envelope transfers (client↔router) plus a small
routing CPU charge, which ``ScaleoutResult.ok`` (scenarios/scaleout.py)
bounds below 5% at ``replicas=1``.

A *disabled* router can be constructed and wired without being
registered in the fabric; it then owns no endpoint, routes nothing and
creates zero simulation events — every single-appliance deployment
carries one (``deploy_fabric``'s defaults), so the golden figures
themselves prove the faithful timeline cannot see it.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right, insort
from typing import (
    Any, Dict, Generator, List, Optional, Sequence, Tuple,
)

from repro.core.context import RequestContext, span
from repro.errors import (
    ReplicaDown, ServerOverloaded, ServiceNotFound, SoapFault, WsError,
    is_retryable,
)
from repro.hardware.host import Host
from repro.resilience.breaker import OPEN, BreakerBoard
from repro.resilience.retry import RetryPolicy
from repro.simkernel.events import Event
from repro.simkernel.process import Interrupt, Process
from repro.telemetry.events import bus
from repro.telemetry.gauges import gauges
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

    def nodes(self) -> List[str]:
        return sorted(self._nodes)

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
    """One onServe replica as the router sees it."""

    __slots__ = ("name", "server", "onserve", "crashed")

    def __init__(self, name: str, server: SoapServer, onserve=None):
        self.name = name
        self.server = server
        self.onserve = onserve
        #: The connection's view of a dead process: a crashed replica
        #: refuses dispatches (the router only *learns* of the death
        #: through transport faults and lease expiry — this flag models
        #: the refused TCP connection, not router knowledge).
        self.crashed = False

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<Replica {self.name!r}>"


class RequestRouter:
    """Consistent-hash request routing over onServe replicas."""

    #: CPU seconds to route one request (hash + table lookup + proxying
    #: bookkeeping) — deliberately far below the container's own
    #: PARSE+DISPATCH cost so the router never becomes the bottleneck.
    ROUTE_CPU = 0.002

    #: Operations safe to replay freely (idempotent reads): retried and
    #: hedged without consulting the invocation-dedup table.  Anything
    #: not listed is treated as mutating and retried only under dedup.
    READ_OPS = frozenset({"findService", "getBindings", "listServices",
                          "describe", "status"})

    def __init__(self, host: Host, fabric: Optional[SoapFabric] = None,
                 enabled: bool = True, spill_threshold: int = 4,
                 vnodes: int = 64, breaker_failure_threshold: int = 3,
                 breaker_reset_timeout: float = 60.0,
                 store=None, self_healing: bool = False,
                 lease_ttl: float = 15.0,
                 lease_check_interval: float = 5.0,
                 fault_threshold: int = 2,
                 shed_limit: Optional[int] = None,
                 backpressure_threshold: Optional[int] = None,
                 failover_policy: Optional[RetryPolicy] = None):
        self.host = host
        self.sim = host.sim
        self.enabled = enabled
        if spill_threshold < 1:
            raise WsError("spill_threshold must be >= 1")
        self.spill_threshold = spill_threshold
        self.ring = HashRing(vnodes=vnodes)
        self._replicas: Dict[str, Replica] = {}
        self._inflight: Dict[str, int] = {}
        #: Per-replica circuit breakers: an open circuit drops the
        #: replica from the candidate walk until the reset timeout.
        self.breakers = BreakerBoard(
            self.sim, failure_threshold=breaker_failure_threshold,
            reset_timeout=breaker_reset_timeout)
        self.requests_routed = 0
        self.rebalances = 0
        self.bus = bus(self.sim)
        board = gauges(self.sim)
        self._queue_gauge = board.gauge("router.queue", unit="reqs")
        self._board = board
        # -- failover, overload ladder, self-healing ------------------
        # Every routed request fails over off a crashed replica.  What
        # ``self_healing`` (with a *store*) adds is durable state: the
        # invocation-dedup table behind replayed mutations, membership
        # leases and the watchdog that expires them.  The constructor
        # creates zero simulation events either way (the watchdog only
        # starts via start_membership_watch).
        if lease_ttl <= 0 or lease_check_interval <= 0:
            raise WsError("lease_ttl and lease_check_interval must be > 0")
        if fault_threshold < 1:
            raise WsError("fault_threshold must be >= 1")
        if shed_limit is not None and shed_limit < spill_threshold:
            raise WsError("shed_limit must be >= spill_threshold "
                          "(spill before shed)")
        self.store = store
        self.self_healing = self_healing
        self.lease_ttl = lease_ttl
        self.lease_check_interval = lease_check_interval
        self.fault_threshold = fault_threshold
        self.shed_limit = shed_limit
        self.backpressure_threshold = backpressure_threshold
        self.failover_policy = failover_policy or RetryPolicy(
            max_attempts=3, base_delay=0.25, multiplier=2.0, max_delay=2.0)
        self._consecutive_faults: Dict[str, int] = {}
        # Per replica, in admission order (a dict as an ordered set): a
        # crash must interrupt them in the same order on every run.
        self._inflight_procs: Dict[str, Dict[Process, None]] = {}
        #: Replicas declared dead or drained, parked for revival.
        self._dead: Dict[str, Replica] = {}
        self._drain_waiters: Dict[str, List[Event]] = {}
        self._watchdog: Optional[Process] = None
        self._backpressured = False
        #: (ts, replica, reason) death declarations, in order.
        self.deaths: List[Tuple[float, str, str]] = []
        self.failovers = 0
        self.dedup_hits = 0
        self.sheds = 0
        # Only an *enabled* router owns an endpoint.  A disabled router
        # stays out of the fabric entirely: nothing resolves to it,
        # nothing routes through it, no timeline can be perturbed by it.
        self.fabric = fabric
        if fabric is not None and enabled:
            fabric.register(self)

    # -- replica membership ----------------------------------------------------

    def add_replica(self, name: str, server: SoapServer,
                    onserve=None) -> None:
        if name in self._replicas:
            raise WsError(f"replica {name!r} already registered")
        self._replicas[name] = Replica(name, server, onserve)
        self._inflight[name] = 0
        self.ring.add(name)

    def remove_replica(self, name: str, reason: str = "admin",
                       drain: bool = False) -> Optional[Process]:
        """Take *name* out of the routing set.

        Immediate removal (the default) also clears the replica's share
        of the router gauges — its per-replica inflight gauge drops to
        zero and the aggregate queue gauge sheds its in-flight count —
        so a removed replica never lingers as a ghost in telemetry.  A
        ``router.rebalance`` event records the membership change.

        With ``drain=True`` the replica leaves the ring (no *new*
        requests route to it) but keeps its registration until every
        in-flight request finishes; returns the drain process to wait
        on.  Draining a replica with nothing in flight completes
        immediately (still via a process, for a uniform return type).
        """
        if name not in self._replicas:
            raise WsError(f"replica {name!r} not registered")
        if drain:
            self.ring.remove(name)
            self.rebalances += 1
            self._board.gauge("router.rebalances").set(self.rebalances)
            self.bus.emit("router.rebalance", layer="ws", replica=name,
                          reason=f"drain:{reason}",
                          inflight=self._inflight.get(name, 0),
                          replicas=len(self.ring))
            return self.sim.process(self._drain(name, reason),
                                    name=f"router:drain:{name}")
        inflight = self._inflight.pop(name, 0)
        del self._replicas[name]
        self.ring.remove(name)
        if inflight:
            self._queue_gauge.adjust(-inflight)
        self._board.gauge("router.inflight", unit="reqs",
                          labels={"replica": name}).set(0)
        self.rebalances += 1
        self._board.gauge("router.rebalances").set(self.rebalances)
        self.bus.emit("router.rebalance", layer="ws", replica=name,
                      reason=f"remove:{reason}", inflight=inflight,
                      replicas=len(self.ring))
        return None

    def _drain(self, name: str, reason: str
               ) -> Generator[Event, None, None]:
        """Finish in-flight work on *name*, then complete the removal."""
        while self._inflight.get(name, 0) > 0:
            gate = self.sim.event(name=f"router:drain-gate:{name}")
            self._drain_waiters.setdefault(name, []).append(gate)
            yield gate
        self._drain_waiters.pop(name, None)
        replica = self._replicas.pop(name, None)
        self._inflight.pop(name, None)
        self._board.gauge("router.inflight", unit="reqs",
                          labels={"replica": name}).set(0)
        self.bus.emit("router.rebalance", layer="ws", replica=name,
                      reason=f"drained:{reason}", replicas=len(self.ring))
        if replica is not None:
            self._dead[name] = replica
            if self.store is not None:
                self.store.drop_member(name)

    def _notify_drain(self, name: str) -> None:
        """Wake a drain waiting on *name* once its inflight hits zero."""
        if self._inflight.get(name, 0) > 0:
            return
        for gate in self._drain_waiters.pop(name, ()):  # pragma: no branch
            if not gate.triggered:
                gate.succeed()

    def _declare_dead(self, name: str, reason: str) -> None:
        """Declare *name* dead: un-route it and park it for revival."""
        if name not in self._replicas:
            return
        replica = self._replicas[name]
        self.deaths.append((self.sim.now, name, reason))
        self.bus.emit("router.replica_dead", layer="ws", replica=name,
                      reason=reason, survivors=len(self.ring) - 1)
        self.remove_replica(name, reason=reason)
        self._dead[name] = replica
        self._consecutive_faults.pop(name, None)
        if self.store is not None:
            self.store.drop_member(name)

    def revive_replica(self, name: str) -> None:
        """Bring a previously dead/drained replica back into the ring.

        Tolerant of the replica never having been declared dead (e.g. a
        restart that raced the watchdog): reviving an already-routable
        replica is a no-op.
        """
        if name in self._replicas:
            return
        replica = self._dead.pop(name, None)
        if replica is None:
            raise WsError(f"replica {name!r} was never registered")
        replica.crashed = False
        self.add_replica(name, replica.server, replica.onserve)
        self.breakers.reset(name)
        self._consecutive_faults.pop(name, None)
        self.rebalances += 1
        self._board.gauge("router.rebalances").set(self.rebalances)
        self.bus.emit("router.rebalance", layer="ws", replica=name,
                      reason="revive", replicas=len(self.ring))

    def replica_handle(self, name: str) -> Replica:
        """The Replica object for *name*, routable or parked-dead."""
        replica = self._replicas.get(name) or self._dead.get(name)
        if replica is None:
            raise WsError(f"replica {name!r} not registered")
        return replica

    def run_on(self, name: str, work: Generator, label: str) -> Process:
        """Run *work* as a process replica *name* hosts: a proxied
        request, or a peer's share of a striped stage.  It dies with the
        replica — :meth:`kill_inflight` interrupts it, in the order the
        work was admitted."""
        proc = self.sim.process(work, name=label)
        procs = self._inflight_procs.setdefault(name, {})
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
        procs = self._inflight_procs.pop(name, None)
        if not procs:
            return 0
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
        return self._inflight.get(name, 0)

    # -- lease-based membership --------------------------------------------------

    def start_membership_watch(self) -> Process:
        """Start the lease watchdog (requires a store and self-healing).

        The watchdog scans the shared membership table every
        ``lease_check_interval`` seconds and declares any replica whose
        lease expired dead — the slow path that catches replicas which
        died quietly (no traffic, so no transport faults to count).
        """
        if not self.self_healing or self.store is None:
            raise WsError("membership watch needs self_healing=True "
                          "and a state store")
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
                for name in self.store.expired_members(self.sim.now):
                    if name in self._replicas:
                        self._declare_dead(name, "lease_expired")
                    else:
                        self.store.drop_member(name)
        except Interrupt:
            return

    def _note_transport_fault(self, name: str) -> None:
        """Count a transport-level fault against *name* (fast path).

        ``fault_threshold`` consecutive transport faults declare the
        replica dead without waiting out the lease — the fast path for
        replicas that die under traffic.
        """
        count = self._consecutive_faults.get(name, 0) + 1
        self._consecutive_faults[name] = count
        if count >= self.fault_threshold and name in self._replicas:
            self._declare_dead(name, "transport_faults")

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
        owner = live[0]
        chosen = owner
        if self._inflight[owner] >= self.spill_threshold:
            chosen = min(live, key=lambda n: (self._inflight[n],
                                              live.index(n)))
        if chosen != owner or owner != order[0]:
            # Deviated from the pure hash owner: spilled on load and/or
            # skipped an open breaker.
            self.rebalances += 1
            self._board.gauge("router.rebalances").set(self.rebalances)
            self.bus.emit("router.rebalance", layer="ws",
                          service=service_name, owner=order[0],
                          chosen=chosen,
                          reason=("breaker" if owner != order[0]
                                  else "load"))
        return self._replicas[chosen]

    def transport(self, client: Host, service_name: str, operation: str,
                  params: Dict[str, Any],
                  ctx: Optional[RequestContext] = None,
                  ) -> Generator[Event, None, Any]:
        """The routed wire round-trip (client ↔ router ↔ replica).

        Mirrors :meth:`SoapServer.transport`'s contract so WsClient and
        generated stubs work unchanged: the request envelope travels
        client→router, the router charges its routing CPU, picks a
        replica, (lazily) materializes the service there, proxies the
        call over the router↔replica links, and relays the response —
        or the fault envelope — back to the client.  On the way:

        * the replica dispatch runs in a sub-process the crash path can
          interrupt, and a :class:`ReplicaDown` (refused connection or
          mid-request interrupt) fails over to the next preference-list
          survivor under the failover :class:`RetryPolicy`;
        * with a dedup store (``self_healing``), mutating operations
          replay under the invocation-dedup table: a retried call whose
          first attempt actually completed returns the recorded result
          instead of double-executing;
        * the overload ladder — spill (in :meth:`choose`), then shed
          with a typed :class:`ServerOverloaded` once every live
          replica's admission queue is at ``shed_limit``, with
          router-level backpressure pacing admissions before that;
          both rungs are no-ops while their limit is ``None``.
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
            yield self.host.compute(self.ROUTE_CPU, tag="router")
            yield from self._check_backpressure()
            # Idempotency key: mutating operations (anything outside
            # READ_OPS) dedup on (request id, service, operation) so a
            # failover replay of an attempt that actually completed
            # returns the recorded result instead of re-executing.
            dkey = None
            if (self.store is not None and ctx is not None
                    and operation not in self.READ_OPS):
                dkey = f"{ctx.request_id}|{service_name}.{operation}"
            self.requests_routed += 1
            rng = self.sim.rng.stream("router:failover")
            tried: List[str] = []
            attempt = 0
            while True:
                if dkey is not None:
                    cached = self.store.dedup_result(dkey)
                    if cached is not None:
                        self.dedup_hits += 1
                        self.bus.emit("router.dedup_hit", layer="ws",
                                      service=service_name,
                                      operation=operation, key=dkey)
                        result = cached
                        break
                try:
                    replica = self.choose(service_name, exclude=tried)
                except WsError as exc:
                    fault = self._fault_for(ReplicaDown(
                        f"no live replica left for {service_name!r}: {exc}"))
                    yield from self._relay_fault(client, service_name,
                                                 operation, fault)
                    raise fault
                if (self.shed_limit is not None
                        and self._inflight[replica.name] >= self.shed_limit):
                    # Even the least-loaded candidate is saturated:
                    # shed instead of queueing toward collapse.
                    self.sheds += 1
                    self._board.gauge("router.sheds").set(self.sheds)
                    self.bus.emit("router.shed", layer="ws",
                                  service=service_name, operation=operation,
                                  replica=replica.name,
                                  inflight=self._inflight[replica.name])
                    fault = self._fault_for(ServerOverloaded(
                        f"all replicas at admission limit "
                        f"{self.shed_limit} for {service_name!r}"))
                    yield from self._relay_fault(client, service_name,
                                                 operation, fault)
                    raise fault
                if hop is not None:
                    hop.meta["replica"] = replica.name
                self._admit(replica.name)
                proc = self.run_on(
                    replica.name,
                    self._proxy(replica, service_name, operation, params,
                                ctx, dkey),
                    f"router:proxy:{service_name}.{operation}")
                crash: Optional[ReplicaDown] = None
                try:
                    result = yield proc
                except Interrupt as intr:
                    cause = intr.cause
                    if not isinstance(cause, ReplicaDown):
                        raise
                    crash = cause
                except ReplicaDown as exc:
                    crash = exc
                except SoapFault as fault:
                    # Application-level fault: the replica answered, so
                    # it is alive — relay the fault, never fail over
                    # on it.
                    if is_retryable(fault):
                        self.breakers.failure(replica.name)
                    else:
                        self.breakers.success(replica.name)
                    self._consecutive_faults.pop(replica.name, None)
                    yield from self._relay_fault(client, service_name,
                                                 operation, fault)
                    raise
                finally:
                    self._release(replica.name)
                if crash is None:
                    self.breakers.success(replica.name)
                    self._consecutive_faults.pop(replica.name, None)
                    break
                # Crash signal: count it (fault_threshold consecutive
                # faults declare the replica dead ahead of lease
                # expiry), then walk the preference list forward.
                self.breakers.failure(replica.name)
                self._note_transport_fault(replica.name)
                tried.append(replica.name)
                attempt += 1
                if attempt >= self.failover_policy.max_attempts:
                    fault = self._fault_for(ReplicaDown(
                        f"request failed over {attempt} times "
                        f"(last: {crash})"))
                    yield from self._relay_fault(client, service_name,
                                                 operation, fault)
                    raise fault
                self.failovers += 1
                self.bus.emit("router.failover", layer="ws",
                              service=service_name, operation=operation,
                              from_replica=replica.name, attempt=attempt)
                yield self.sim.timeout(
                    self.failover_policy.backoff(attempt, rng=rng),
                    name="router:failover-backoff")
            response = SoapEnvelope.response(operation, result)
            yield self.host.send(client, response.size(),
                                 label=f"route-rsp:{service_name}.{operation}")
        return result

    def _proxy(self, replica: Replica, service_name: str, operation: str,
               params: Dict[str, Any], ctx: Optional[RequestContext],
               dkey: Optional[str]) -> Generator[Event, None, Any]:
        """One dispatch attempt against one replica (interruptible).

        Runs as its own process so :meth:`kill_inflight` can interrupt
        it when the replica crashes.  A replica that already crashed
        refuses the connection outright.  The dedup record is written in
        the same frame the replica's response returns — no yield in
        between — so a crash can never land between "executed" and
        "recorded".
        """
        if replica.crashed:
            raise ReplicaDown(f"connection refused by {replica.name!r}")
        with span(ctx, "router:route", replica=replica.name,
                  service=service_name):
            if replica.onserve is not None:
                yield from replica.onserve.ensure_local_service(
                    service_name, ctx)
            result = yield from replica.server.transport(
                self.host, service_name, operation, params, ctx)
        if dkey is not None and self.store is not None:
            self.store.record_dedup(dkey, replica.name, result,
                                    self.sim.now)
        return result

    # -- admission / overload helpers --------------------------------------------

    def _admit(self, name: str) -> None:
        """Count one request into *name*'s admission queue (gauges)."""
        self._inflight[name] += 1
        self._queue_gauge.adjust(1)
        self._board.gauge("router.inflight", unit="reqs",
                          labels={"replica": name}
                          ).set(self._inflight[name])

    def _release(self, name: str) -> None:
        """Undo :meth:`_admit` — tolerant of a concurrent removal.

        If the replica was removed (crash declared, drain completed)
        while this request unwound, its gauges were already cleared by
        :meth:`remove_replica`; decrementing again would leave ghost
        negative counts, so a missing entry is a no-op.
        """
        if name not in self._inflight:
            return
        self._inflight[name] -= 1
        self._queue_gauge.adjust(-1)
        self._board.gauge("router.inflight", unit="reqs",
                          labels={"replica": name}
                          ).set(self._inflight[name])
        self._notify_drain(name)

    def _check_backpressure(self) -> Generator[Event, None, None]:
        """Router-level backpressure: pace admissions before shedding.

        When total in-flight crosses ``backpressure_threshold`` the
        router delays new admissions by one failover base-delay — a
        gentle brake that flattens arrival bursts so the shed limit is
        the last resort, not the first.  Hysteresis (clear two below
        the threshold) keeps the gauge from flapping.
        """
        if self.backpressure_threshold is None:
            return
        total = sum(self._inflight.values())
        if total >= self.backpressure_threshold:
            if not self._backpressured:
                self._backpressured = True
                self._board.gauge("router.backpressure").set(1)
                self.bus.emit("router.backpressure", layer="ws",
                              inflight=total,
                              threshold=self.backpressure_threshold)
            yield self.sim.timeout(self.failover_policy.base_delay,
                                   name="router:backpressure")
        elif (self._backpressured
              and total <= max(0, self.backpressure_threshold - 2)):
            self._backpressured = False
            self._board.gauge("router.backpressure").set(0)
            self.bus.emit("router.backpressure_clear", layer="ws",
                          inflight=total)

    @staticmethod
    def _fault_for(exc: WsError) -> SoapFault:
        """Wrap a router-side error the way the server pipeline would.

        Same ``"TypeName: message"`` detail convention, so the client
        side classifies router faults (ReplicaDown, ServerOverloaded)
        through the standard :attr:`SoapFault.root_cause` machinery.
        """
        message = str(exc)
        fault = SoapFault(faultcode="Server",
                          faultstring=message or type(exc).__name__,
                          detail=(f"{type(exc).__name__}: {message}"
                                  if message else type(exc).__name__))
        fault.__cause__ = exc
        return fault

    def _relay_fault(self, client: Host, service_name: str, operation: str,
                     fault: SoapFault) -> Generator[Event, None, None]:
        envelope = SoapEnvelope.fault_response(fault)
        yield self.host.send(client, envelope.size(),
                             label=f"route-fault:{service_name}"
                                   f".{operation}")

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (f"<RequestRouter replicas={self.replicas()} "
                f"routed={self.requests_routed} "
                f"rebalances={self.rebalances}>")
