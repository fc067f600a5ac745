"""Unit tests for the request router and its consistent-hash ring."""

import pytest

from repro.errors import ReplicaDown, SoapFault, WsError
from repro.hardware import Host, Network
from repro.hardware.host import HostSpec
from repro.simkernel import Simulator
from repro.telemetry.events import bus
from repro.telemetry.gauges import gauges
from repro.ws.router import HashRing, RequestRouter
from repro.ws.server import SoapFabric


# -- the ring ---------------------------------------------------------------

KEYS = [f"Service{i:03d}" for i in range(200)]


def ring_with(nodes, vnodes=64):
    ring = HashRing(vnodes=vnodes)
    for node in nodes:
        ring.add(node)
    return ring


def test_ring_owner_is_preference_head():
    ring = ring_with([f"r{i}" for i in range(1, 9)])
    for key in KEYS:
        order = ring.preference(key)
        assert order[0] == ring.owner(key)
        assert sorted(order) == ring.nodes()


def test_ring_leave_moves_only_departed_nodes_keys():
    nodes = [f"r{i}" for i in range(1, 9)]
    ring = ring_with(nodes)
    before = {key: ring.owner(key) for key in KEYS}
    ring.remove("r3")
    moved = [key for key in KEYS if ring.owner(key) != before[key]]
    # Consistent hashing: exactly the departed node's keys remap.
    assert set(moved) == {key for key in KEYS if before[key] == "r3"}
    # ...and that is a small fraction of the keyspace (~1/8 expected).
    assert len(moved) <= len(KEYS) // 2


def test_ring_join_steals_only_what_it_now_owns():
    ring = ring_with([f"r{i}" for i in range(1, 9)])
    before = {key: ring.owner(key) for key in KEYS}
    ring.add("r9")
    moved = [key for key in KEYS if ring.owner(key) != before[key]]
    assert all(ring.owner(key) == "r9" for key in moved)
    assert 0 < len(moved) <= len(KEYS) // 2


def test_ring_spread_is_roughly_uniform():
    ring = ring_with([f"r{i}" for i in range(1, 5)])
    per_node = {n: 0 for n in ring.nodes()}
    for key in KEYS:
        per_node[ring.owner(key)] += 1
    assert all(count > 0 for count in per_node.values())


def test_ring_rejects_duplicates_and_unknown():
    ring = ring_with(["a"])
    with pytest.raises(WsError):
        ring.add("a")
    with pytest.raises(WsError):
        ring.remove("ghost")
    with pytest.raises(WsError):
        HashRing(vnodes=0)


def test_empty_ring_has_no_owner():
    ring = HashRing()
    assert ring.preference("AnyService") == []
    with pytest.raises(WsError):
        ring.owner("AnyService")


# -- routing decisions ------------------------------------------------------

class _StubServer:
    """Stands in for a SoapServer in pure choose() tests."""


def make_router(n_replicas=3, **kw):
    sim = Simulator()
    net = Network(sim)
    host = Host(sim, "router", net, HostSpec(cores=4))
    router = RequestRouter(host, **kw)
    for i in range(1, n_replicas + 1):
        router.add_replica(f"replica{i}", _StubServer())
    return sim, router


def test_choose_prefers_hash_owner_when_idle():
    sim, router = make_router()
    owner = router.ring.owner("HelloService")
    assert router.choose("HelloService").name == owner
    assert router.rebalances == 0


def test_choose_spills_to_least_loaded_under_skew():
    sim, router = make_router(spill_threshold=2)
    order = router.ring.preference("HelloService")
    owner, second, third = order
    router._inflight[owner] = 2   # at threshold: must spill
    router._inflight[second] = 1
    router._inflight[third] = 0
    assert router.choose("HelloService").name == third
    assert router.rebalances == 1
    # Ties break by ring preference, keeping the decision deterministic.
    router._inflight[third] = 1
    assert router.choose("HelloService").name == second


def test_choose_skips_open_breaker():
    sim, router = make_router(breaker_failure_threshold=2)
    order = router.ring.preference("HelloService")
    owner = order[0]
    for _ in range(2):
        router.breakers.failure(owner)
    chosen = router.choose("HelloService")
    assert chosen.name == order[1]
    assert router.rebalances == 1


def test_choose_raises_when_all_circuits_open():
    sim, router = make_router(n_replicas=2, breaker_failure_threshold=1)
    for name in router.replicas():
        router.breakers.failure(name)
    with pytest.raises(WsError):
        router.choose("HelloService")


def test_membership_bookkeeping():
    sim, router = make_router(n_replicas=2)
    assert router.replicas() == ["replica1", "replica2"]
    with pytest.raises(WsError):
        router.add_replica("replica1", _StubServer())
    router.remove_replica("replica2")
    assert router.replicas() == ["replica1"]
    with pytest.raises(WsError):
        router.remove_replica("replica2")
    assert len(router.ring) == 1


def test_remove_replica_clears_gauges_and_emits_rebalance():
    # The ghost-replica fix: removal must zero the removed replica's
    # inflight gauge, shed its share of the aggregate queue gauge, and
    # announce the membership change on the bus.
    sim, router = make_router(n_replicas=3)
    board = gauges(sim)
    router._admit("replica2")
    router._admit("replica2")
    router._admit("replica1")
    assert board.gauge("router.queue", unit="reqs").current == 3
    router.remove_replica("replica2", reason="test")
    assert board.gauge("router.queue", unit="reqs").current == 1
    assert board.gauge("router.inflight", unit="reqs",
                       labels={"replica": "replica2"}).current == 0
    events = bus(sim).events("router.rebalance")
    assert any(ev.get("replica") == "replica2"
               and ev.get("reason") == "remove:test" for ev in events)
    # A late release for the removed replica must not go negative.
    router._release("replica2")
    assert board.gauge("router.queue", unit="reqs").current == 1
    router._release("replica1")
    assert board.gauge("router.queue", unit="reqs").current == 0


# -- satellite: HashRing.remove coverage ------------------------------------

def test_ring_remove_preference_excludes_removed_node():
    ring = ring_with([f"r{i}" for i in range(1, 6)])
    ring.remove("r2")
    for key in KEYS:
        order = ring.preference(key)
        assert "r2" not in order
        assert sorted(order) == ring.nodes()


def test_ring_remove_keeps_ownership_normalized():
    ring = ring_with([f"r{i}" for i in range(1, 9)])
    for victim in ("r4", "r7"):
        ring.remove(victim)
        ownership = ring.ownership()
        assert victim not in ownership
        assert sum(ownership.values()) == pytest.approx(1.0)
        assert all(arc > 0.0 for arc in ownership.values())


def test_ring_remove_then_readd_is_deterministic():
    ring = ring_with([f"r{i}" for i in range(1, 6)])
    before_points = list(ring._points)
    before_owners = {key: ring.owner(key) for key in KEYS}
    ring.remove("r3")
    ring.add("r3")
    assert list(ring._points) == before_points
    assert {key: ring.owner(key) for key in KEYS} == before_owners


def test_ring_preference_memo_follows_membership():
    """The memoised walk equals a cold ring's after every add/remove,
    and a caller scribbling on its copy cannot poison the next answer."""
    ring = ring_with(["r1", "r2", "r3"])
    members = ["r1", "r2", "r3"]
    for change in ("+r4", "-r2", "+r5", "-r1", "+r2", "-r4"):
        for key in KEYS[:40]:   # warm the memo on the old membership
            ring.preference(key).clear()
        if change[0] == "+":
            ring.add(change[1:])
            members.append(change[1:])
        else:
            ring.remove(change[1:])
            members.remove(change[1:])
        cold = ring_with(members)
        for key in KEYS[:40]:
            assert ring.preference(key) == cold._walk(key)
            assert ring.preference(key) == cold._walk(key)  # memo hit
            assert ring.owner(key) == cold._walk(key)[0]


def test_disabled_router_owns_no_endpoint():
    sim = Simulator()
    net = Network(sim)
    host = Host(sim, "router", net, HostSpec(cores=4))
    fabric = SoapFabric()
    router = RequestRouter(host, fabric, enabled=False)
    router.add_replica("replica1", _StubServer())
    with pytest.raises(WsError):
        fabric.resolve(router.endpoint_for("HelloService"))


def test_enabled_router_is_a_fabric_target():
    sim = Simulator()
    net = Network(sim)
    host = Host(sim, "router", net, HostSpec(cores=4))
    fabric = SoapFabric()
    router = RequestRouter(host, fabric, enabled=True)
    server, service = fabric.resolve(router.endpoint_for("HelloService"))
    assert server is router
    assert service == "HelloService"


# -- real servers behind the router: WSDL documents and fault relay ----------

def routed_service(handler=lambda operation, params: "ok", **router_kw):
    """Two SoapServers behind a router, ``T`` deployed on the hash owner."""
    from repro.units import Mbps
    from repro.ws import (
        OperationSpec, ServiceDescription, SoapServer, WsClient,
    )

    sim = Simulator()
    net = Network(sim)
    fabric = SoapFabric()
    router = RequestRouter(Host(sim, "router", net, HostSpec(cores=4)),
                           fabric, enabled=True, **router_kw)
    client_host = Host(sim, "c", net, HostSpec())
    net.connect("router", "c", bandwidth=Mbps(100))
    servers = {}
    for name in ("replica1", "replica2"):
        servers[name] = SoapServer(Host(sim, name, net, HostSpec()), fabric)
        net.connect("router", name, bandwidth=Mbps(100))
        router.add_replica(name, servers[name])
    owner = servers[router.ring.owner("T")]
    owner.deploy(ServiceDescription("T", [OperationSpec("go")]), handler)
    return sim, router, owner, WsClient(client_host, fabric)


def test_router_and_replica_wsdl_are_distinct_and_rendered_once(monkeypatch):
    from repro.ws import (
        OperationSpec, ParameterSpec, ServiceDescription, parse_wsdl,
        server as server_module,
    )

    sim, router, owner, _client = routed_service()
    renders = []
    render = server_module.generate_wsdl

    def counting(description, endpoint):
        renders.append(endpoint)
        return render(description, endpoint)

    monkeypatch.setattr(server_module, "generate_wsdl", counting)
    routed, direct = router.wsdl("T"), owner.wsdl("T")
    assert parse_wsdl(routed)[1] == "soap://router/T"
    assert parse_wsdl(direct)[1] == owner.endpoint_for("T")
    assert router.wsdl("T") is routed and owner.wsdl("T") is direct
    assert sorted(renders) == sorted(["soap://router/T",
                                      owner.endpoint_for("T")])
    # A hot redeploy stales both documents, not just the replica's own.
    widened = ServiceDescription("T", [
        OperationSpec("go", [ParameterSpec("name", "xsd:string")])])
    owner.update_description("T", widened)
    assert parse_wsdl(router.wsdl("T")) == (widened, "soap://router/T")
    assert parse_wsdl(owner.wsdl("T")) == (widened, owner.endpoint_for("T"))
    assert len(renders) == 4


@pytest.mark.parametrize("self_healing", [False, True],
                         ids=["direct", "healing"])
def test_router_relays_unencodable_result_as_fault(self_healing):
    # Used to escape the routed transport as a raw WsError (see
    # test_server_robustness): the replica now answers with a fault
    # envelope, which the router relays like any application fault.
    sim, router, owner, client = routed_service(
        handler=lambda operation, params: None, self_healing=self_healing)
    with pytest.raises(SoapFault) as exc_info:
        sim.run(until=client.call(router.endpoint_for("T"), "go"))
    assert exc_info.value.root_cause == "WsError"
    assert "no XSD mapping for NoneType" in exc_info.value.detail
    assert owner.service("T").faults == 1
    assert router.inflight(router.ring.owner("T")) == 0


# -- end-to-end determinism -------------------------------------------------

def _routed_run():
    from repro.core.fabric import deploy_fabric
    from repro.core.invocation import discover_and_invoke
    from repro.core.onserve import OnServeConfig
    from repro.grid.testbed import build_testbed
    from repro.telemetry.events import bus
    from repro.units import KB
    from repro.workloads.executables import make_payload

    sim = Simulator(seed=0)
    testbed = build_testbed(sim=sim, n_users=4)
    stack = sim.run(until=deploy_fabric(testbed, OnServeConfig(),
                                        replicas=2, spill_threshold=1))
    payload = make_payload("fixed", size=int(KB(32)), runtime="3",
                           output_bytes="64")
    sim.run(until=stack.portal.upload_and_generate(
        testbed.user_hosts[0], "route.bin", payload))
    procs = [discover_and_invoke(stack, client, "Route%")
             for client in stack.user_clients]
    sim.run(until=sim.all_of(procs))
    return (sim.now, stack.router.requests_routed,
            stack.router.rebalances, dict(bus(sim).counts()))


def test_routed_runs_are_trace_deterministic():
    assert _routed_run() == _routed_run()


def test_ring_ownership_arcs_sum_to_one_and_cover_all_nodes():
    nodes = [f"r{i}" for i in range(1, 6)]
    ring = ring_with(nodes)
    ownership = ring.ownership()
    assert sorted(ownership) == sorted(nodes)
    assert sum(ownership.values()) == pytest.approx(1.0)
    assert all(arc > 0.0 for arc in ownership.values())
    # 64 vnodes keep arcs roughly even; nothing owns half the ring.
    assert max(ownership.values()) < 0.5


def test_ring_ownership_tracks_membership_and_empty_ring():
    assert HashRing().ownership() == {}
    ring = ring_with(["a", "b"])
    before = ring.ownership()
    ring.remove("b")
    assert ring.ownership() == {"a": pytest.approx(1.0)}
    ring.add("b")
    after = ring.ownership()
    assert after.keys() == before.keys()
    for node in before:
        assert after[node] == pytest.approx(before[node])


def test_ring_ownership_matches_sampled_owner_frequency():
    ring = ring_with([f"r{i}" for i in range(1, 5)])
    ownership = ring.ownership()
    counts = {}
    for key in KEYS:
        owner = ring.owner(key)
        counts[owner] = counts.get(owner, 0) + 1
    for node, arc in ownership.items():
        # 200 sampled keys land within a loose band of the exact arcs.
        assert abs(counts.get(node, 0) / len(KEYS) - arc) < 0.15
