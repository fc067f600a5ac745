"""The self-healing routed fabric: crash failover, dedup, shed, leases.

These tests exercise the plane the chaos drill (scenarios/chaos.py)
gates at scale, but one invariant at a time on small fabrics: a crash
mid-request fails over to a survivor without losing the call, a
replayed invocation returns the recorded result instead of executing
twice, the overload ladder sheds with a typed retryable fault, and
lease expiry declares a silent replica dead.
"""

import pytest

from repro.core.context import RequestContext
from repro.core.fabric import deploy_fabric
from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig
from repro.errors import OnServeError, SoapFault, WsError
from repro.grid.testbed import build_testbed
from repro.resilience.retry import RetryPolicy
from repro.simkernel import Simulator
from repro.telemetry.events import bus
from repro.units import KB
from repro.workloads.executables import make_payload


def deploy_healing(replicas=3, n_users=2, seed=0, **kw):
    sim = Simulator(seed=seed)
    testbed = build_testbed(sim=sim, n_users=n_users)
    stack = sim.run(until=deploy_fabric(
        testbed, OnServeConfig(), replicas=replicas,
        self_healing=True, lease_ttl=12.0, lease_check_interval=3.0,
        **kw))
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
    # Heartbeats outlive the lease TTL: every member stays leased well
    # past the initial grant, with a live (future) expiry.
    rows = {r["replica"]: r for r in stack.store.members()}
    assert sorted(rows) == names
    for row in rows.values():
        assert row["status"] == "up"
        assert row["expires"] > sim.now
    assert stack.store.expired_members(sim.now) == []
    stack.stop_self_healing()


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
    assert not stack.router.replica_handle(victim).crashed
    # The restarted replica heartbeats again: its lease stays fresh.
    sim.run(until=sim.timeout(20.0))
    assert victim in stack.router.replicas()
    row = stack.store.member(victim)
    assert row is not None and row["expires"] > sim.now
    # Reviving a live replica is a no-op, reviving a stranger is not.
    stack.router.revive_replica(victim)
    with pytest.raises(WsError):
        stack.router.revive_replica("never-registered")
    stack.stop_self_healing()


def test_dedup_replays_recorded_result_without_resubmitting():
    sim, testbed, stack = deploy_healing(replicas=2, n_users=1)
    publish(sim, testbed, stack)
    ctx = RequestContext(sim, "req-replayed")
    stack.store.record_dedup("req-replayed|RouteService.execute",
                             "appliance", "recorded-output", now=sim.now)
    invocations_before = stack.store.get_record("RouteService")[
        "invocations"]
    result = sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "Route%", ctx=ctx))
    # The router short-circuits on the idempotency table: the recorded
    # result comes back and no replica executes the work again.
    assert result == "recorded-output"
    assert stack.router.dedup_hits == 1
    assert stack.store.dedup_duplicates == 0
    row = stack.store.get_record("RouteService")
    assert row["invocations"] == invocations_before
    assert bus(sim).first("router.dedup_hit") is not None
    stack.stop_self_healing()


def test_read_operations_bypass_the_dedup_table():
    sim, testbed, stack = deploy_healing(replicas=2, n_users=1)
    publish(sim, testbed, stack)
    sim.run(until=discover_and_invoke(stack, stack.user_clients[0],
                                      "Route%"))
    # Exactly the execute() call is recorded; the discovery traffic
    # (findService et al) must not bloat the idempotency table.
    assert stack.store.dedup_count() == 1
    stack.stop_self_healing()


def test_shed_raises_retryable_server_overloaded():
    sim, testbed, stack = deploy_healing(
        replicas=2, n_users=1, spill_threshold=1, shed_limit=1)
    publish(sim, testbed, stack)
    for name in stack.router.replicas():
        stack.router._admit(name)    # saturate every candidate
    with pytest.raises(SoapFault) as exc_info:
        sim.run(until=discover_and_invoke(
            stack, stack.user_clients[0], "Route%"))
    assert exc_info.value.root_cause == "ServerOverloaded"
    assert exc_info.value.retryable   # callers may back off and repeat
    assert stack.router.sheds == 1
    assert bus(sim).first("router.shed") is not None
    for name in stack.router.replicas():
        stack.router._release(name)
    stack.stop_self_healing()


def test_shed_limit_must_not_undercut_spill():
    sim = Simulator(seed=0)
    testbed = build_testbed(sim=sim, n_users=1)
    with pytest.raises(WsError):
        sim.run(until=deploy_fabric(testbed, replicas=2,
                                    self_healing=True,
                                    spill_threshold=4, shed_limit=2))


def test_drain_waits_for_inflight_then_drops_lease():
    sim, testbed, stack = deploy_healing(replicas=3, n_users=1)
    publish(sim, testbed, stack, runtime="6")
    victim = stack.router.ring.owner("RouteService")
    if victim == stack.onserves[0].replica:
        pytest.skip("ring owner is the primary under this seed")
    proc = discover_and_invoke(stack, stack.user_clients[0], "Route%")

    def drainer():
        yield sim.timeout(8.0, name="test:drain-timer")
        assert stack.router.inflight(victim) > 0
        yield stack.drain_replica(victim)

    drain_proc = sim.process(drainer(), name="test:drainer")
    result = sim.run(until=sim.all_of([proc, drain_proc]))[proc]
    # The draining replica finished its request before leaving; its
    # membership lease is gone and nothing new routes to it.
    assert result
    assert victim not in stack.router.replicas()
    assert stack.store.member(victim) is None
    assert stack.router.inflight(victim) == 0
    drained = [ev for ev in bus(sim).events("router.rebalance")
               if ev.get("replica") == victim
               and str(ev.get("reason", "")).startswith("drained:")]
    assert drained
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
