"""The self-healing routed fabric: crash failover and leases.

These tests exercise the plane the chaos drill (scenarios/chaos.py)
gates at scale, but one invariant at a time on small fabrics: a crash
mid-request fails over to a survivor without losing the call, and
lease expiry declares a silent replica dead.
"""

import pytest

from repro.core.context import RequestContext
from repro.core.fabric import deploy_fabric
from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig
from repro.errors import OnServeError, WsError
from repro.grid.testbed import build_testbed
from repro.resilience.retry import RetryPolicy
from repro.simkernel import Simulator
from repro.telemetry.events import bus
from repro.telemetry.gauges import gauges
from repro.units import KB
from repro.ws.router import RequestRouter
from repro.workloads.executables import make_payload


def deploy_healing(replicas=3, n_users=2, seed=0, **router_settings):
    """A self-healing fabric; *router_settings* (``fault_threshold``,
    ``spill_threshold``) shadow the router's class defaults."""
    sim = Simulator(seed=seed)
    testbed = build_testbed(sim=sim, n_users=n_users)
    stack = sim.run(until=deploy_fabric(
        testbed, OnServeConfig(), replicas=replicas,
        self_healing=True, lease_ttl=12.0, lease_check_interval=3.0))
    for name, value in router_settings.items():
        assert hasattr(RequestRouter, name), name
        setattr(stack.router, name, value)
    return sim, testbed, stack


def publish(sim, testbed, stack, runtime="4"):
    payload = make_payload("fixed", size=int(KB(32)), runtime=runtime,
                           output_bytes="64")
    return sim.run(until=stack.portal.upload_and_generate(
        testbed.user_hosts[0], "route.bin", payload))


def crash_at(sim, stack, name, at):
    def op():
        if at > sim.now:
            yield sim.timeout(at - sim.now, name="test:crash-timer")
        stack.crash_replica(name)
    return sim.process(op(), name=f"test:crash:{name}")


def test_passthrough_deploy_rejects_self_healing():
    sim = Simulator(seed=0)
    testbed = build_testbed(sim=sim, n_users=1)
    with pytest.raises(OnServeError):
        deploy_fabric(testbed, replicas=1, self_healing=True)


def test_self_healing_deploy_heartbeats_every_replica():
    sim, testbed, stack = deploy_healing(replicas=3)
    names = stack.router.replicas()
    assert len(names) == 3
    sim.run(until=sim.timeout(30.0))
    # Heartbeats outlive the lease TTL: every replica stays leased well
    # past the initial grant, with a live (future) expiry, under the
    # epoch of its first beat.
    records = [stack.router.replica_handle(name) for name in names]
    assert all(r.lease_expires > sim.now for r in records)
    assert sorted(r.epoch for r in records) == [1, 2, 3]
    assert stack.router.deaths == []
    stack.stop_self_healing()
    assert all(r.heartbeat is None for r in records)


def test_crash_mid_request_fails_over_without_loss():
    sim, testbed, stack = deploy_healing(replicas=3, n_users=1,
                                         fault_threshold=1)
    publish(sim, testbed, stack, runtime="6")
    owner = stack.router.ring.owner("RouteService")
    primary = stack.onserves[0].replica
    if owner == primary:  # keep the DB tier up: crash a secondary
        pytest.skip("ring owner is the primary under this seed")
    proc = discover_and_invoke(stack, stack.user_clients[0], "Route%")
    crasher = crash_at(sim, stack, owner, at=sim.now + 8.0)
    result = sim.run(until=sim.all_of([proc, crasher]))[proc]
    # The call completed on a survivor; the client never saw the crash.
    assert result
    assert stack.router.failovers >= 1
    assert owner not in stack.router.replicas()
    events = bus(sim).events("router.failover")
    assert any(ev.get("from_replica") == owner for ev in events)


def test_crash_detected_by_consecutive_transport_faults():
    sim, testbed, stack = deploy_healing(replicas=3, n_users=2,
                                         fault_threshold=2)
    publish(sim, testbed, stack)
    victim = [n for n in stack.router.replicas()
              if n != stack.onserves[0].replica][0]
    stack.crash_replica(victim)
    # Drive enough routed traffic that the crashed replica accumulates
    # fault_threshold consecutive refusals (each refused dispatch fails
    # over, so no client-visible error).
    for client in stack.user_clients:
        sim.run(until=discover_and_invoke(stack, client, "Route%"))
    assert victim not in stack.router.replicas()
    reasons = {name: reason for _, name, reason in stack.router.deaths}
    assert reasons.get(victim) in ("transport_faults", "lease_expired")
    stack.stop_self_healing()


def test_lease_expiry_declares_a_silent_replica_dead():
    sim, testbed, stack = deploy_healing(replicas=3)
    victim = [n for n in stack.router.replicas()
              if n != stack.onserves[0].replica][0]
    stack.crash_replica(victim)      # kills its heartbeat too
    # No traffic at all: only the membership watchdog can notice.
    sim.run(until=sim.timeout(12.0 + 2 * 3.0 + 1.0))
    assert victim not in stack.router.replicas()
    reasons = {name: reason for _, name, reason in stack.router.deaths}
    assert reasons[victim] == "lease_expired"
    dead = bus(sim).first("router.replica_dead", replica=victim)
    assert dead is not None and dead.get("reason") == "lease_expired"
    stack.stop_self_healing()


def test_restart_rejoins_ring_lease_and_breaker():
    sim, testbed, stack = deploy_healing(replicas=3)
    victim = [n for n in stack.router.replicas()
              if n != stack.onserves[0].replica][0]
    stack.crash_replica(victim)
    sim.run(until=sim.timeout(20.0))
    assert victim not in stack.router.replicas()
    stack.restart_replica(victim)
    assert victim in stack.router.replicas()
    record = stack.router.replica_handle(victim)
    assert not record.crashed
    # The restarted replica heartbeats again: its lease stays fresh,
    # under an epoch no first beat held.
    sim.run(until=sim.timeout(20.0))
    assert victim in stack.router.replicas()
    assert record.lease_expires > sim.now and record.epoch == 4
    # Reviving a routable replica keeps it routable; a stranger raises.
    stack.router.revive_replica(victim)
    assert victim in stack.router.replicas()
    with pytest.raises(WsError):
        stack.router.revive_replica("never-registered")
    stack.stop_self_healing()


def test_restart_racing_the_detection_serves_again():
    # Restarted before the router noticed the crash, the replica is
    # still routable: the restart must clear its crash flag, or it keeps
    # refusing, is declared dead by transport faults and never rejoins
    # while its new heartbeat beats on.
    sim, testbed, stack = deploy_healing(replicas=3, n_users=2)
    publish(sim, testbed, stack)
    victim = "appliance02"
    stack.crash_replica(victim)
    stack.restart_replica(victim)
    for _ in range(3):
        for client in stack.user_clients:
            sim.run(until=discover_and_invoke(stack, client, "Route%"))
    sim.run(until=sim.timeout(60.0))
    assert victim in stack.router.replicas()
    assert not stack.router.replica_handle(victim).crashed
    assert stack.router.deaths == []
    stack.stop_self_healing()


def test_renewals_from_an_admin_removed_replica_are_ignored():
    sim, testbed, stack = deploy_healing(replicas=3)
    victim = "appliance03"
    record = stack.router.replica_handle(victim)
    stack.router.remove_replica(victim)
    # Its heartbeat beats on, but a removed replica holds no lease and
    # does not come back by renewing one.
    sim.run(until=sim.timeout(30.0))
    assert record.heartbeat.is_alive
    assert record.lease_expires is None
    assert victim not in stack.router.replicas()
    assert stack.router.deaths == []
    stack.stop_self_healing()
    assert record.heartbeat is None


def test_a_release_after_removal_and_revival_leaves_the_count_alone():
    """A request admitted before its replica was removed and revived
    finishes under the new incarnation, which never counted it: its
    release must not drive the in-flight count below zero."""
    sim, testbed, stack = deploy_healing(replicas=3, n_users=1)
    publish(sim, testbed, stack, runtime="20")
    router = stack.router
    owner = router.ring.owner("RouteService")
    seen = []

    def churn():
        yield sim.timeout(5.0, name="test:churn")
        seen.append(router.inflight(owner))
        router.remove_replica(owner)
        router.revive_replica(owner)
        seen.append(router.inflight(owner))

    invoke = discover_and_invoke(stack, stack.user_clients[0], "Route%")
    sim.process(churn(), name="test:churn")
    sim.run(until=invoke)
    assert seen == [1, 0]
    assert router.inflight(owner) == 0
    assert gauges(sim).gauge("router.queue").current == 0
    assert router.choose("RouteService").name == owner
    stack.stop_self_healing()


JITTERED = RetryPolicy(max_attempts=3, base_delay=0.25, max_delay=2.0,
                       jitter=0.5)


def _crash_with_requests_in_flight(n_clients=4):
    """One run in a fresh simulator: *n_clients* staggered executes on
    the ring owner, which then crashes under all of them.  Returns the
    per-request execute dispatches and the whole bus trace."""
    sim, testbed, stack = deploy_healing(replicas=3, n_users=n_clients,
                                         spill_threshold=2 * n_clients)
    # Jittered backoffs come off one shared stream in interrupt order,
    # so the order the crash cuts requests off in shows in retry times.
    stack.router.failover_policy = JITTERED
    publish(sim, testbed, stack, runtime="20")
    owner = stack.router.ring.owner("RouteService")
    assert owner != stack.onserves[0].replica  # keep the DB tier up
    ctxs = [RequestContext(sim, f"req-{i}") for i in range(n_clients)]

    def staggered(i):
        yield sim.timeout(0.3 * i, name="test:stagger")
        return (yield discover_and_invoke(stack, stack.user_clients[i],
                                          "Route%", ctx=ctxs[i]))

    procs = [sim.process(staggered(i), name=f"test:client-{i}")
             for i in range(n_clients)]
    seen = {}

    def crasher():
        yield sim.timeout(12.0, name="test:crash-timer")
        seen["inflight"] = stack.router.inflight(owner)
        stack.crash_replica(owner)

    crash = sim.process(crasher(), name="test:crasher")
    results = sim.run(until=sim.all_of(procs + [crash]))
    assert all(results[p] for p in procs)
    stack.stop_self_healing()
    dispatches = [[(s.meta["replica"], s.start) for s in ctx.spans()
                   if s.name == "router:route"
                   and s.meta["service"] == "RouteService"]
                  for ctx in ctxs]
    trace = [(ev.ts, ev.kind, ev.request_id, sorted(ev.fields.items()))
             for ev in bus(sim).events()]
    return owner, seen["inflight"], dispatches, trace


def test_crash_under_several_inflight_requests_is_deterministic():
    owner, inflight, dispatches, trace = _crash_with_requests_in_flight()
    assert inflight >= 3
    for (first, _), (retry, _) in dispatches:
        assert first == owner and retry != owner
    # Requests are cut off in admission order: the k-th admitted one
    # sleeps the k-th backoff drawn from the failover stream.
    crashed_at = next(ev[0] for ev in trace if ev[1] == "router.failover")
    draws = Simulator(seed=0).rng.stream("router:failover")
    for _, (_, retried_at) in dispatches:
        assert retried_at == pytest.approx(
            crashed_at + JITTERED.backoff(1, rng=draws), abs=1e-9)
    # A second run must not depend on where the proxy processes happen
    # to live in memory: shift the allocator in between.
    ballast = [object() for _ in range(10007)]
    again = _crash_with_requests_in_flight()
    del ballast
    assert again[2] == dispatches
    assert again[3] == trace


def _one_second_in(sim):
    return sim.now + 1.0


def _inside_the_agent_submit(sim):
    # Read off an uncrashed twin run (same seed, same steps): halfway
    # through the parse CPU of the owner's submitJob crossing to its own
    # agent — the handler is inside that crossing and the gatekeeper
    # does not have the job yet.
    twin, testbed, stack = deploy_healing(replicas=3, n_users=1,
                                          fault_threshold=1)
    publish(twin, testbed, stack, runtime="6")
    assert twin.now == sim.now
    ctx = RequestContext.create(twin)
    twin.run(until=discover_and_invoke(stack, stack.user_clients[0],
                                       "Route%", ctx=ctx))
    stack.stop_self_healing()
    call = ctx.root.find("client:CyberaideAgent.submitJob")
    served = call.find("server:CyberaideAgent.submitJob")
    assert served.start > call.start
    return (call.start + served.start) / 2


def _crash_runs_the_request_once(crash_instant):
    sim, testbed, stack = deploy_healing(replicas=3, n_users=1,
                                         fault_threshold=1)
    publish(sim, testbed, stack, runtime="6")
    owner = stack.router.ring.owner("RouteService")
    primary = stack.onserves[0].replica
    if owner == primary:  # keep the DB tier up: crash a secondary
        pytest.skip("ring owner is the primary under this seed")
    at = crash_instant(sim)
    db = stack.onserves[0].dbmanager.db
    rows_before = db.count("invocations")
    rec = bus(sim).record("ws.request", "gram.submit")
    ctx = RequestContext.create(sim)
    proc = discover_and_invoke(stack, stack.user_clients[0], "Route%",
                               ctx=ctx)
    crasher = crash_at(sim, stack, owner, at=at)
    result = sim.run(until=sim.all_of([proc, crasher]))[proc]
    sim.run(until=sim.timeout(30.0))  # let any zombie work surface
    assert result
    crashed = [ev for ev in rec.events("ws.request")
               if ev.get("side") == "server" and ev.get("origin") == owner
               and ev.get("operation") == "execute"]
    assert [ev.get("fault") for ev in crashed] == ["Interrupt"]
    submits = [ev.request_id for ev in rec.events("gram.submit")]
    assert submits == [ctx.request_id]
    assert db.count("invocations") == rows_before + 1
    # No submitJob crossing the owner carried ran to an answer.
    assert all(ev.get("fault") == "Interrupt"
               for ev in rec.events("ws.request")
               if ev.get("origin") == owner
               and ev.get("operation") == "submitJob")
    stack.stop_self_healing()


def test_crash_before_the_submit_runs_the_request_once():
    # The owner crashes mid-execute, after its agent calls began but
    # before its grid submit: one second in, and inside its submitJob
    # call to its own agent.  The crash unwinds the owner's handler and
    # the agent call it is in, so only the survivor's attempt reaches
    # GRAM and records the invocation.
    for crash_instant in (_one_second_in, _inside_the_agent_submit):
        _crash_runs_the_request_once(crash_instant)
