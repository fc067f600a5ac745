"""Integration tests for the replica fabric (deploy_fabric + store)."""

import pytest

from repro.core.fabric import FabricStack, deploy_fabric
from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig
from repro.errors import OnServeError
from repro.grid.testbed import build_testbed
from repro.simkernel import Simulator
from repro.telemetry.events import bus
from repro.units import KB
from repro.workloads.executables import make_payload


def deploy(replicas=3, n_users=3, router=None, config=None, seed=0):
    sim = Simulator(seed=seed)
    testbed = build_testbed(sim=sim, n_users=n_users)
    stack = sim.run(until=deploy_fabric(testbed, config or OnServeConfig(),
                                        replicas=replicas, router=router))
    return sim, testbed, stack


def publish(sim, testbed, stack, filename="route.bin", runtime="2"):
    payload = make_payload("fixed", size=int(KB(32)), runtime=runtime,
                           output_bytes="64")
    return sim.run(until=stack.portal.upload_and_generate(
        testbed.user_hosts[0], filename, payload))


def test_replicas_must_be_positive():
    sim = Simulator(seed=0)
    testbed = build_testbed(sim=sim, n_users=1)
    with pytest.raises(OnServeError):
        deploy_fabric(testbed, replicas=0)


def test_single_replica_passthrough_keeps_direct_endpoints():
    sim, testbed, stack = deploy(replicas=1)
    assert isinstance(stack, FabricStack)
    assert not stack.router.enabled
    assert stack.replica_hosts[0] is stack.appliance_host
    service = publish(sim, testbed, stack)
    # Router off: services publish the appliance's own endpoint and
    # nothing routes through the (attached-but-disabled) router.
    assert service.endpoint.startswith("soap://appliance/")
    result = sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "Route%"))
    assert result
    assert stack.router.requests_routed == 0


def test_deploy_onserve_is_deploy_fabric_with_defaults():
    from repro.core.onserve import deploy_onserve
    sim = Simulator(seed=0)
    testbed = build_testbed(sim=sim, n_users=1)
    stack = sim.run(until=deploy_onserve(testbed))
    # One stack class for every deployment, with nothing beneath it.
    assert type(stack) is FabricStack
    assert FabricStack.__bases__ == (object,)
    assert stack.onserves == [stack.onserve]
    assert not stack.router.enabled
    assert stack.router.host is stack.appliance_host
    # The paper's topology: no clone, no router host.
    assert "router" not in testbed.network.hosts()
    assert "appliance02" not in testbed.network.hosts()


def test_config_builds_the_db_tier_once_and_the_fabric_passes_it_on():
    # Bad values are still rejected at construction — by the owner.
    for bad in ({"db_chunk_bytes": -1}, {"db_replicas": -1}):
        with pytest.raises(OnServeError, match="must be >= 0"):
            OnServeConfig(**bad)
    config = OnServeConfig(db_mvcc=True, db_chunk_bytes=4096, db_replicas=1)
    sim, testbed, stack = deploy(replicas=1, n_users=1, config=config)
    assert stack.dbmanager.tier is config.db_tier
    assert (config.db_tier.mvcc, config.db_tier.chunk_bytes,
            config.db_tier.replicas) == (True, 4096, 1)


def test_fabric_publishes_router_endpoint():
    sim, testbed, stack = deploy(replicas=2)
    service = publish(sim, testbed, stack)
    assert service.endpoint == "soap://router/RouteService"
    row = stack.store.get_record("RouteService")
    assert row["endpoint"] == "soap://router/RouteService"
    assert row["replica"] == "appliance"


def test_deploy_on_primary_invoke_anywhere():
    sim, testbed, stack = deploy(replicas=3)
    publish(sim, testbed, stack)
    # Force materialization on a replica that did not generate the
    # service: the store row + DB executable are enough to rebuild.
    other = stack.onserves[2]
    assert "RouteService" not in other.services
    sim.run(until=sim.process(
        other.ensure_local_service("RouteService")))
    assert "RouteService" in other.services
    assert "RouteService" in other.soap_server.services()
    # And the routed client path works end to end.
    result = sim.run(until=discover_and_invoke(
        stack, stack.user_clients[1], "Route%"))
    assert result
    assert stack.router.requests_routed > 0


def test_materialized_replica_serves_without_republishing(monkeypatch):
    sim, testbed, stack = deploy(replicas=2)
    publish(sim, testbed, stack)
    # Materialization must not touch UDDI: placement truth stays put.
    before = sim.run(until=stack.user_clients[0].call(
        stack.inquiry_endpoint(), "findService", pattern="Route%"))
    sim.run(until=sim.process(
        stack.onserves[1].ensure_local_service("RouteService")))
    after = sim.run(until=stack.user_clients[0].call(
        stack.inquiry_endpoint(), "findService", pattern="Route%"))
    assert before == after


def test_cross_replica_undeploy_invalidates_everywhere():
    sim, testbed, stack = deploy(replicas=3)
    publish(sim, testbed, stack)
    sim.run(until=sim.process(
        stack.onserves[1].ensure_local_service("RouteService")))
    # Undeploy through a replica that never materialized the service.
    sim.run(until=stack.onserves[2].undeploy_service("RouteService"))
    assert stack.store.get_record("RouteService") is None
    for onserve in stack.onserves:
        assert "RouteService" not in onserve.services
        assert "RouteService" not in onserve.soap_server.services()


def test_replacement_upload_drops_stale_materializations():
    sim, testbed, stack = deploy(replicas=2)
    publish(sim, testbed, stack)
    sim.run(until=sim.process(
        stack.onserves[1].ensure_local_service("RouteService")))
    assert "RouteService" in stack.onserves[1].services
    # Re-uploading the same filename republishes in place on the
    # primary; the store fan-out must drop replica 1's stale runtime.
    publish(sim, testbed, stack)
    assert "RouteService" not in stack.onserves[1].services
    assert "RouteService" not in stack.onserves[1].soap_server.services()
    # It materializes again on demand, from the fresh record.
    sim.run(until=sim.process(
        stack.onserves[1].ensure_local_service("RouteService")))
    assert "RouteService" in stack.onserves[1].services


def test_invocation_counts_are_fabric_wide():
    sim, testbed, stack = deploy(replicas=2)
    publish(sim, testbed, stack)
    for client in stack.user_clients[:2]:
        sim.run(until=discover_and_invoke(stack, client, "Route%"))
    row = stack.store.get_record("RouteService")
    assert row["invocations"] == 2


def test_fabric_wires_config_notify_for_every_replica():
    """``config.notify`` used to be honoured by ``deploy_onserve`` only:
    a fabric needed its queue attached by hand."""
    config = OnServeConfig(notify=True, notify_sites=("ncsa",),
                           site_policy="round_robin")
    sim = Simulator(seed=0)
    testbed = build_testbed(sim=sim, n_sites=2, n_users=1)  # ncsa, sdsc
    stack = sim.run(until=deploy_fabric(testbed, config, replicas=2))
    queue = stack.onserve.notify_queue
    assert queue is not None
    assert all(o.notify_queue is queue for o in stack.onserves)
    assert queue.capable_sites == ["ncsa"]
    assert {name for name, gk in testbed.gatekeepers.items()
            if gk.notify_capable} == {"ncsa"}
    assert all(gk.notify_queue is queue
               for gk in testbed.gatekeepers.values())
    publish(sim, testbed, stack)
    assert sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "Route%"))
    detected = bus(sim).first("core.output_detected")
    assert detected.fields["site"] == "ncsa"
    assert detected.fields["pushed"] and detected.fields["polls"] == 0
    counts = bus(sim).counts()
    assert counts.get("poller.batch", 0) == 0
    assert counts.get("notify.deliver", 0) >= 1


def test_crash_fails_over_without_self_healing():
    """A routed fabric built *without* ``self_healing`` used to keep
    dispatching to a crashed replica: the direct transport never looked
    at the flag."""
    from tests.ws.test_router_healing import crash_at
    sim, testbed, stack = deploy(replicas=3, n_users=1)
    assert not stack.router.self_healing and stack.router.store is None
    publish(sim, testbed, stack, runtime="6")
    # Crash a secondary (the primary hosts the DB tier): pick a service
    # name owned by one.
    owner = stack.router.ring.owner("RouteService")
    if owner == stack.onserve.replica:
        pytest.skip("ring owner is the primary under this seed")
    proc = discover_and_invoke(stack, stack.user_clients[0], "Route%")
    crasher = crash_at(sim, stack, owner, at=sim.now + 8.0)
    assert sim.run(until=sim.all_of([proc, crasher]))[proc]
    # The in-flight proxy died with the replica; the request failed
    # over and completed on a survivor.
    crash = bus(sim).first("fabric.replica_crash")
    assert crash.fields["inflight_killed"] == 1
    assert stack.router.failovers >= 1
    failover = bus(sim).first("router.failover")
    assert failover.fields["from_replica"] == owner
    # Nothing is dispatched to the corpse afterwards: later requests
    # are refused there, fail over, and (fault_threshold=2) get the
    # replica declared dead without any lease machinery.
    served = []
    bus(sim).subscribe(lambda ev: served.append(ev.fields["origin"])
                       if ev.fields["side"] == "server" else None,
                       kinds=("ws.request",))
    for _ in range(2):
        assert sim.run(until=discover_and_invoke(
            stack, stack.user_clients[0], "Route%"))
    assert served and owner not in served
    assert owner not in stack.router.replicas()
    assert stack.store.dedup_count() == 0   # no store, no dedup rows


def test_shed_limit_sheds_without_self_healing():
    from repro.errors import SoapFault
    sim = Simulator(seed=0)
    testbed = build_testbed(sim=sim, n_users=1)
    stack = sim.run(until=deploy_fabric(
        testbed, replicas=2, spill_threshold=1, shed_limit=1))
    assert not stack.router.self_healing
    publish(sim, testbed, stack)
    for name in stack.router.replicas():
        stack.router._admit(name)    # saturate every candidate
    with pytest.raises(SoapFault) as exc_info:
        sim.run(until=discover_and_invoke(
            stack, stack.user_clients[0], "Route%"))
    assert exc_info.value.root_cause == "ServerOverloaded"
    assert stack.router.sheds == 1


def test_enable_client_caches_is_idempotent():
    sim, testbed, stack = deploy(replicas=2)
    old = stack.enable_client_caches()
    new = stack.enable_client_caches()
    # Second call replaces the caches instead of stacking subscriptions:
    # the store holds one per replica plus exactly one per *new* cache.
    assert [client.cache for client in stack.user_clients] == new
    assert not set(map(id, old)) & set(map(id, new))
    subscribers = [hook.__self__ for hook in stack.store._removed.values()]
    assert subscribers == [hook.__self__
                           for hook in stack.store._republished.values()]
    assert [s for s in subscribers if s not in stack.onserves] == new
    # The container's undeploy hook keeps its one tenant: the replica.
    assert [len(o.soap_server._undeploy_listeners)
            for o in stack.onserves] == [1, 1]


def test_one_invalidation_per_cache_per_change_whatever_the_replica_count(
        monkeypatch):
    """A re-upload and an undeploy each reach every client cache exactly
    once — through the store, not once per replica hook — and leave no
    stale discovery or WSDL entry behind."""
    from repro.ws.cache import ClientCache
    calls = []
    real = ClientCache.invalidate_service

    def counting(cache, service_name):
        calls.append((cache, service_name))
        real(cache, service_name)

    monkeypatch.setattr(ClientCache, "invalidate_service", counting)
    sim, testbed, stack = deploy(replicas=8, n_users=4, router=True)
    assert type(stack) is FabricStack
    caches = stack.enable_client_caches()
    assert len(caches) == 4
    publish(sim, testbed, stack)
    endpoint = "soap://router/RouteService"

    def warm():
        for client in stack.user_clients:
            assert sim.run(until=discover_and_invoke(stack, client, "Route%"))
        assert all(c.lookup_discovery("Route%") and c.lookup_wsdl(endpoint)
                   for c in caches)
        calls.clear()

    def assert_each_cache_invalidated_once():
        assert sorted(calls, key=lambda call: caches.index(call[0])) \
            == [(cache, "RouteService") for cache in caches]
        assert not any(c.lookup_discovery("Route%") or c.lookup_wsdl(endpoint)
                       for c in caches)

    warm()
    publish(sim, testbed, stack, runtime="3")       # replacement upload
    assert_each_cache_invalidated_once()
    warm()
    # Undeploy through a replica that is not the publisher.
    sim.run(until=stack.onserves[5].undeploy_service("RouteService"))
    assert_each_cache_invalidated_once()


def test_remediation_drains_and_restarts_the_hot_replica():
    from types import SimpleNamespace
    from repro.telemetry.events import bus
    sim = Simulator(seed=0)
    testbed = build_testbed(sim=sim, n_users=1)
    stack = sim.run(until=deploy_fabric(testbed, OnServeConfig(),
                                        replicas=3, self_healing=True,
                                        lease_ttl=12.0,
                                        lease_check_interval=3.0))
    hot = [n for n in stack.router.replicas()
           if n != stack.onserves[0].replica][0]
    tower = SimpleNamespace(detector=SimpleNamespace(hot=hot))
    stack.enable_remediation(tower, cooldown=60.0)
    bus(sim).emit("slo.burn", layer="telemetry", slo="availability")
    bus(sim).emit("slo.burn", layer="telemetry", slo="availability")
    sim.run(until=sim.timeout(5.0))
    # One remediation despite two burn alerts (cooldown), and the hot
    # replica came back: drained out of the ring, then restarted in.
    assert [(name, action) for _, name, action
            in stack.remediations] == [(hot, "drain_restart")]
    assert hot in stack.router.replicas()
    reasons = [str(ev.get("reason", ""))
               for ev in bus(sim).events("router.rebalance")
               if ev.get("replica") == hot]
    assert "drain:slo_burn" in reasons and "revive" in reasons
    assert bus(sim).first("fabric.remediate") is not None
    # Detached, further burns do nothing.
    stack.disable_remediation()
    sim.run(until=sim.timeout(120.0))
    bus(sim).emit("slo.burn", layer="telemetry", slo="availability")
    sim.run(until=sim.timeout(5.0))
    assert len(stack.remediations) == 1
    stack.stop_self_healing()


def test_remediation_never_recycles_the_last_replica():
    from types import SimpleNamespace
    from repro.telemetry.events import bus
    sim = Simulator(seed=0)
    testbed = build_testbed(sim=sim, n_users=1)
    stack = sim.run(until=deploy_fabric(testbed, OnServeConfig(),
                                        replicas=2, self_healing=True))
    survivor, other = stack.router.replicas()[0], \
        stack.router.replicas()[1]
    stack.crash_replica(other)
    sim.run(until=sim.timeout(30.0))   # watchdog buries the crash
    assert stack.router.replicas() == [survivor]
    tower = SimpleNamespace(detector=SimpleNamespace(hot=survivor))
    stack.enable_remediation(tower, cooldown=1.0)
    bus(sim).emit("slo.burn", layer="telemetry", slo="availability")
    sim.run(until=sim.timeout(5.0))
    assert stack.remediations == []
    assert stack.router.replicas() == [survivor]
    stack.stop_self_healing()
