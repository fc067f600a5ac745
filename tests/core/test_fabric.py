"""Integration tests for the replica fabric (deploy_fabric + store)."""

import pytest

from repro.core.context import RequestContext
from repro.core.fabric import FabricStack, deploy_fabric
from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig
from repro.errors import OnServeError
from repro.faults import FaultSpec, fault_plane
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
    assert stack.router is None and stack.onserve.router is None
    assert stack.onserves[0].host is stack.appliance_host
    service = publish(sim, testbed, stack)
    # Router off: services publish the appliance's own endpoint.
    assert service.endpoint.startswith("soap://appliance/")
    assert stack.inquiry_endpoint().startswith("soap://appliance/")
    result = sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "Route%"))
    assert result
    # Crash, restart and self-healing are routed-fabric verbs.
    plane = fault_plane(sim).configure([FaultSpec(
        "replica.crash", target="*", window=(sim.now, sim.now + 1.0))])
    for verb in (stack.start_self_healing,
                 lambda: stack.crash_replica("appliance"),
                 lambda: stack.restart_replica("appliance"),
                 lambda: plane.install_fabric(stack)):
        with pytest.raises(OnServeError):
            verb()


def test_deploy_onserve_is_deploy_fabric_with_defaults():
    from repro.core.onserve import deploy_onserve
    sim = Simulator(seed=0)
    testbed = build_testbed(sim=sim, n_users=1)
    stack = sim.run(until=deploy_onserve(testbed))
    # One stack class for every deployment, with nothing beneath it.
    assert type(stack) is FabricStack
    assert FabricStack.__bases__ == (object,)
    assert stack.onserves == [stack.onserve]
    assert stack.router is None
    # The paper's topology: no clone, no router host.
    assert "router" not in testbed.network.hosts()
    assert "appliance02" not in testbed.network.hosts()


def test_config_builds_the_db_tier_once_and_the_fabric_passes_it_on():
    # Bad values are still rejected at construction — by the owner.
    with pytest.raises(OnServeError, match="must be >= 0"):
        OnServeConfig(db_chunk_bytes=-1)
    config = OnServeConfig(db_mvcc=True, db_chunk_bytes=4096)
    sim, testbed, stack = deploy(replicas=1, n_users=1, config=config)
    assert stack.dbmanager.tier is config.db_tier
    assert (config.db_tier.mvcc, config.db_tier.chunk_bytes) == (True, 4096)


def test_the_production_profile_reads_every_row_from_the_primary():
    """The benchmark's ``production`` profile still passes
    ``db_replicas=2``; no replica is built, nothing taps the primary's
    log, and a hot invocation makes no replica read."""
    config = OnServeConfig(coalesce=True, datapath=True, notify=True,
                           db_mvcc=True, db_serialize=True,
                           db_chunk_bytes=4 * 1024 * 1024, db_replicas=2)
    sim = Simulator(seed=0)
    testbed = build_testbed(sim=sim, n_users=2)
    stack = sim.run(until=deploy_fabric(testbed, config, replicas=2,
                                        router=True, self_healing=True))
    assert stack.dbmanager.db.wal.taps == []
    assert stack.dbmanager.read_router is None
    publish(sim, testbed, stack)
    assert sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "Route%"))
    rec = bus(sim).record("db.replica.read", "ws.request")
    assert sim.run(until=discover_and_invoke(
        stack, stack.user_clients[1], "Route%"))
    assert rec.events("ws.request")
    assert rec.events("db.replica.read") == []
    assert bus(sim).counts().get("db.replica.read", 0) == 0


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


def test_replica_spans_nest_under_the_router_hop():
    sim, testbed, stack = deploy(replicas=3, router=True)
    publish(sim, testbed, stack)
    ctx = RequestContext.create(sim, principal="user")
    sim.run(until=discover_and_invoke(
        stack, stack.user_clients[1], "Route%", ctx=ctx))
    hops = [node for _, node in ctx.root.walk() if node.name == "router:hop"]
    assert hops
    # Every hop names the replica that served it.
    assert all(hop.meta.get("replica") in stack.router.replicas()
               for hop in hops)
    # Replica-side spans sit below a hop, without any layer past the
    # router knowing about sharding.
    replica_side = [node for _, node in ctx.root.walk()
                    if node.name.startswith(("server:", "service:", "gram:"))]
    assert replica_side

    def under_a_hop(node):
        while node is not None:
            if node.name == "router:hop":
                return True
            node = node.parent
        return False

    assert all(under_a_hop(node) for node in replica_side)


def test_materialized_replica_serves_without_republishing(monkeypatch):
    sim, testbed, stack = deploy(replicas=2)
    publish(sim, testbed, stack)
    # Materialization must not touch UDDI: placement truth stays put.
    before = sim.run(until=sim.process(stack.user_clients[0].call(
        stack.inquiry_endpoint(), "findService", pattern="Route%")))
    sim.run(until=sim.process(
        stack.onserves[1].ensure_local_service("RouteService")))
    after = sim.run(until=sim.process(stack.user_clients[0].call(
        stack.inquiry_endpoint(), "findService", pattern="Route%")))
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


def test_replacement_upload_refreshes_materializations_in_place():
    sim, testbed, stack = deploy(replicas=2)
    publish(sim, testbed, stack)
    replica = stack.onserves[1]
    sim.run(until=sim.process(replica.ensure_local_service("RouteService")))
    runtime, builds = replica.runtimes["RouteService"], replica.builder.builds
    # Re-uploading the same filename with a new parameter spec
    # republishes in place on the primary; the store fan-out refreshes
    # replica 1's runtime and interface instead of dropping them.
    payload = make_payload("fixed", size=int(KB(32)), runtime="2",
                           output_bytes="64")
    sim.run(until=stack.portal.upload_and_generate(
        testbed.user_hosts[0], "route.bin", payload, params_spec="n:int"))
    assert replica.runtimes["RouteService"] is runtime
    assert [p.name for p in runtime.record.params] == ["n"]
    execute = replica.soap_server.service("RouteService").description
    assert [p.name for p in execute.operation("execute").params] == ["n"]
    # Nothing rebuilds it: replica 1 serves the new spec as it stands.
    sim.run(until=sim.process(replica.ensure_local_service("RouteService")))
    assert replica.builder.builds == builds


def test_invocation_counts_are_fabric_wide():
    sim, testbed, stack = deploy(replicas=2)
    publish(sim, testbed, stack)
    for client in stack.user_clients[:2]:
        sim.run(until=discover_and_invoke(stack, client, "Route%"))
    # Every replica reads the same count off the shared history table,
    # whichever of them ran the invocations.
    rows = stack.dbmanager.db.find_eq("invocations", "service",
                                      "RouteService")
    assert len(rows) == 2
    for onserve in stack.onserves:
        assert onserve.invocation_count(
            onserve.get_service("RouteService")) == 2


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
    assert counts.get("agent.poll", 0) == 0
    assert counts.get("notify.deliver", 0) >= 1


def test_crash_fails_over_without_self_healing():
    """A routed fabric built *without* ``self_healing`` used to keep
    dispatching to a crashed replica: the direct transport never looked
    at the flag."""
    from tests.ws.test_router_healing import crash_at
    sim, testbed, stack = deploy(replicas=3, n_users=1)
    assert not stack.self_healing
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
    # A failover replays nothing: no dedup row is ever written.
    assert stack.dbmanager.db.count("invocation_dedup") == 0


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


def test_every_replica_materialises_from_one_archive_and_one_signature(
        monkeypatch):
    """An archive is a function of its record and a handler's context
    arity of its function: eight replicas serving one service zip once
    and inspect each handler function once, while every build still
    pays its own CPU and disk write."""
    import inspect
    import weakref
    import zipfile
    from repro.core import service_builder
    from repro.core.grid_service import GridServiceRuntime
    from repro.ws import server as server_module

    service_builder._archive.cache_clear()
    monkeypatch.setattr(server_module, "_ARITY",
                        weakref.WeakKeyDictionary())
    inspected = []
    real_signature = inspect.signature

    def signature(handler, *args, **kwargs):
        inspected.append(getattr(handler, "__func__", handler))
        return real_signature(handler, *args, **kwargs)

    monkeypatch.setattr(server_module.inspect, "signature", signature)
    zips = []

    class CountingZipFile(zipfile.ZipFile):
        def __init__(self, *args, **kwargs):
            zips.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(service_builder.zipfile, "ZipFile", CountingZipFile)

    sim, testbed, stack = deploy(replicas=8, n_users=1)
    publish(sim, testbed, stack)
    for onserve in stack.onserves[1:]:
        sim.run(until=sim.process(
            onserve.ensure_local_service("RouteService")))
    assert all("RouteService" in o.soap_server.services()
               for o in stack.onserves)
    assert len(zips) == 1
    assert [o.builder.builds for o in stack.onserves] == [1] * 8
    assert inspected.count(GridServiceRuntime.handler) == 1
    assert len(inspected) == len(set(inspected))
