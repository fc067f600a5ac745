"""Client-side invocation caches: hits, TTL, and the invalidation contract."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OnServeConfig, deploy_onserve, discover_and_invoke
from repro.core.invocation import discover_service
from repro.errors import ServiceNotFound, SoapFault
from repro.grid import build_testbed
from repro.simkernel.kernel import Simulator
from repro.telemetry.events import bus
from repro.units import KB, Mbps
from repro.workloads import make_payload
from repro.ws.cache import ClientCache
from repro.ws.client import generate_stub
from repro.ws.registryapi import (
    OperationSpec, ParameterSpec, ServiceDescription)
from repro.ws.wsdl import generate_wsdl


# -- unit: the cache itself ------------------------------------------------


def test_ttl_must_be_positive():
    with pytest.raises(ValueError):
        ClientCache(Simulator(seed=0), ttl=0.0)


def test_discovery_entries_expire_by_sim_time():
    sim = Simulator(seed=0)
    cache = ClientCache(sim, ttl=10.0)
    cache.store_discovery("Hello%", ("HelloService", "soap://a/HelloService",
                                     "soap://a/HelloService?wsdl"))
    assert cache.lookup_discovery("Hello%") is not None
    sim.run(until=sim.timeout(10.0))
    assert cache.lookup_discovery("Hello%") is None  # expired + dropped
    assert cache.hits == 1 and cache.misses == 1


def test_stub_memo_is_keyed_by_document_bytes():
    sim = Simulator(seed=0)
    cache = ClientCache(sim)
    from repro.ws.registryapi import OperationSpec, ServiceDescription
    from repro.ws.wsdl import generate_wsdl
    doc_a = generate_wsdl(ServiceDescription("A", [
        OperationSpec("execute", [], "xsd:string")]), "soap://a/A")
    assert cache.stub_class(doc_a) is cache.stub_class(doc_a)
    doc_b = generate_wsdl(ServiceDescription("B", [
        OperationSpec("execute", [], "xsd:string")]), "soap://a/B")
    assert cache.stub_class(doc_a) is not cache.stub_class(doc_b)


def test_invalidate_drops_only_the_named_service():
    sim = Simulator(seed=0)
    cache = ClientCache(sim)
    cache.store_discovery("A%", ("AService", "soap://h/AService",
                                 "soap://h/AService?wsdl"))
    cache.store_discovery("B%", ("BService", "soap://h/BService",
                                 "soap://h/BService?wsdl"))
    cache.store_wsdl("soap://h/AService", b"<a/>")
    cache.store_wsdl("soap://h/BService", b"<b/>")
    cache.invalidate_service("AService")
    assert cache.lookup_discovery("A%") is None
    assert cache.lookup_wsdl("soap://h/AService") is None
    assert cache.lookup_discovery("B%") is not None
    assert cache.lookup_wsdl("soap://h/BService") is not None
    assert cache.invalidations == 1


def test_evict_endpoint_drops_bindings_but_keeps_stubs():
    sim = Simulator(seed=0)
    cache = ClientCache(sim)
    cache.store_discovery("A%", ("AService", "soap://dead/AService",
                                 "soap://dead/AService?wsdl"))
    cache.store_discovery("B%", ("BService", "soap://live/BService",
                                 "soap://live/BService?wsdl"))
    cache.store_wsdl("soap://dead/AService", b"<a/>")
    cache.store_wsdl("soap://live/BService", b"<b/>")
    from repro.ws.registryapi import OperationSpec, ServiceDescription
    from repro.ws.wsdl import generate_wsdl
    doc = generate_wsdl(ServiceDescription("AService", [
        OperationSpec("execute", [], "xsd:string")]), "soap://dead/AService")
    stub = cache.stub_class(doc)
    # Failover eviction: everything *bound to* the dead endpoint goes,
    # entries for other endpoints stay put.
    cache.evict_endpoint("soap://dead/AService")
    assert cache.lookup_discovery("A%") is None
    assert cache.lookup_wsdl("soap://dead/AService") is None
    assert cache.lookup_discovery("B%") is not None
    assert cache.lookup_wsdl("soap://live/BService") is not None
    # Stub classes are pure derivations of WSDL bytes: they survive.
    assert cache.stub_class(doc) is stub
    assert cache.invalidations == 1
    # Evicting an endpoint nothing points at is a silent no-op.
    cache.evict_endpoint("soap://dead/AService")
    assert cache.invalidations == 1


# -- derive once: the process-wide stub memo --------------------------------


def wsdl_for(name, *params):
    return generate_wsdl(ServiceDescription(name, [
        OperationSpec("execute", [ParameterSpec(p) for p in params],
                      "xsd:string")]), f"soap://h/{name}")


def stub_events(sim):
    return [(ev.kind, ev.fields["key"]) for ev in bus(sim).events()
            if ev.fields.get("cache") == "stub"]


def test_generate_stub_builds_one_class_per_distinct_document():
    doc = wsdl_for("MemoA", "name")
    copy = bytes(bytearray(doc))  # equal bytes, another object
    assert copy is not doc
    stub = generate_stub(doc)
    assert generate_stub(doc) is stub and generate_stub(copy) is stub
    # Different bytes are a different key: a changed interface, or the
    # same interface at another endpoint, is a different class.
    assert generate_stub(wsdl_for("MemoA", "name", "shout")) is not stub
    assert generate_stub(doc.replace(b"soap://h/", b"soap://g/")) is not stub
    # The memoised class is what the uncached builder (kept reachable
    # as ``__wrapped__``, the in-test reference) would have built.
    fresh = generate_stub.__wrapped__(doc)
    assert fresh is not stub and fresh.__name__ == stub.__name__
    assert (fresh.ENDPOINT, fresh.__doc__) == (stub.ENDPOINT, stub.__doc__)
    assert fresh.DESCRIPTION.name == stub.DESCRIPTION.name
    assert ([(op.name, [p.name for p in op.params])
             for op in fresh.DESCRIPTION.operations]
            == [(op.name, [p.name for p in op.params])
                for op in stub.DESCRIPTION.operations])
    assert fresh.execute.__doc__ == stub.execute.__doc__
    # ...and it is bounded.
    assert generate_stub.cache_info().maxsize == 256


def test_stub_hit_and_miss_are_per_client_not_per_process():
    doc = wsdl_for("MemoB")
    sim = Simulator(seed=0)
    first, second = ClientCache(sim), ClientCache(sim)
    stub = first.stub_class(doc)
    assert first.stub_class(bytes(bytearray(doc))) is stub
    # The class already exists process-wide, yet this client has not
    # imported it: its first lookup is a miss, exactly as before.
    assert second.stub_class(doc) is stub
    assert stub_events(sim) == [("cache.miss", "MemoBStub"),
                                ("cache.hit", "MemoBStub"),
                                ("cache.miss", "MemoBStub")]
    assert (first.hits, first.misses) == (1, 1)
    assert (second.hits, second.misses) == (0, 1)
    # clear() forgets bindings, not pure derivations.
    first.clear()
    assert first.stub_class(doc) is stub and first.hits == 2
    # A changed document is a miss and another class.
    assert first.stub_class(wsdl_for("MemoB", "name")) is not stub
    assert (first.hits, first.misses) == (2, 2)


class reference_cache(ClientCache):
    """``ClientCache`` with the invalidation the index replaced, verbatim:
    one scan of every discovery entry and one of every WSDL entry."""

    def invalidate_service(self, service_name):
        suffix = f"/{service_name}"
        stale_patterns = [p for p, (_, triple) in self._discovery.items()
                          if triple[0] == service_name]
        stale_endpoints = [e for e in self._wsdl if e.endswith(suffix)]
        for pattern in stale_patterns:
            del self._discovery[pattern]
        for endpoint in stale_endpoints:
            del self._wsdl[endpoint]
        if stale_patterns or stale_endpoints:
            self.invalidations += 1
            self._bus.emit("cache.invalidate", layer="ws",
                           service=service_name,
                           discovery=len(stale_patterns),
                           wsdl=len(stale_endpoints))


# Service names are identifiers (never a "/"); one is a suffix of another
# and one is empty, the cases a suffix scan could confuse.
services = st.sampled_from(["A", "AA", "BA", "Hello", ""])
hosts = st.sampled_from(["h", "g/x", ""])
patterns = st.sampled_from(["A%", "%A", "Hel%", "%"])
endpoints = st.one_of(
    st.builds(lambda h, s: f"soap://{h}/{s}", hosts, services),
    st.sampled_from(["A", "no-slash", "soap://h/A/"]))
cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("store_discovery"), patterns,
                  st.tuples(services, endpoints, st.just("loc"))),
        st.tuples(st.just("store_wsdl"), endpoints, st.just(b"<doc/>")),
        st.tuples(st.just("lookup_discovery"), patterns),
        st.tuples(st.just("lookup_wsdl"), endpoints),
        st.tuples(st.just("invalidate_service"), services),
        st.tuples(st.just("invalidate_service"), services),
        st.tuples(st.just("evict_endpoint"), endpoints),
        st.tuples(st.just("clear")),
        st.tuples(st.just("wait"), st.sampled_from([1.0, 6.0])),
    ),
    max_size=30)


@settings(max_examples=200, deadline=None)
@given(cache_ops)
def test_indexed_invalidation_matches_the_scanning_reference(operations):
    sims = Simulator(seed=0), Simulator(seed=0)
    ref, cache = reference_cache(sims[0], ttl=10.0), ClientCache(sims[1],
                                                                 ttl=10.0)
    for op, *args in operations:
        if op == "wait":
            for sim in sims:
                sim.run(until=sim.timeout(args[0]))
            continue
        assert getattr(cache, op)(*args) == getattr(ref, op)(*args)
        assert cache._discovery == ref._discovery
        assert cache._wsdl == ref._wsdl
    assert ((cache.hits, cache.misses, cache.invalidations)
            == (ref.hits, ref.misses, ref.invalidations))
    assert ([(ev.kind, ev.ts, ev.fields) for ev in bus(sims[1]).events()]
            == [(ev.kind, ev.ts, ev.fields) for ev in bus(sims[0]).events()])


# -- integration: caches on a live stack -----------------------------------


def cached_stack():
    tb = build_testbed(n_sites=2, nodes_per_site=2, cores_per_node=4,
                       appliance_uplink=Mbps(10))
    stack = tb.sim.run(until=deploy_onserve(tb))
    caches = stack.enable_client_caches()
    payload = make_payload("echo", size=int(KB(2)))
    tb.sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "hello.sh", payload, params_spec="name:string"))
    return tb, stack, caches[0]


def test_warm_discovery_skips_the_registry_round_trips():
    tb, stack, cache = cached_stack()
    client = stack.user_clients[0]
    inquiry = stack.soap_server.service("UddiInquiry")
    tb.sim.run(until=discover_and_invoke(stack, client, "Hello%", name="a"))
    calls_after_cold = inquiry.invocations
    t0 = tb.sim.now
    tb.sim.run(until=discover_service(stack, client, "Hello%"))
    # A warm discovery touches neither the registry nor the clock.
    assert inquiry.invocations == calls_after_cold
    assert tb.sim.now == t0
    assert cache.hits >= 1


def test_warm_invocation_is_faster_and_correct():
    tb, stack, cache = cached_stack()
    client = stack.user_clients[0]
    t0 = tb.sim.now
    out1 = tb.sim.run(until=discover_and_invoke(stack, client, "Hello%",
                                                name="cold"))
    cold = tb.sim.now - t0
    t0 = tb.sim.now
    out2 = tb.sim.run(until=discover_and_invoke(stack, client, "Hello%",
                                                name="warm"))
    warm = tb.sim.now - t0
    assert (out1, out2) == ("cold\n", "warm\n")
    assert warm < cold  # discovery + WSDL round-trips disappeared


def test_undeploy_invalidates_no_stale_endpoint_served():
    tb, stack, cache = cached_stack()
    client = stack.user_clients[0]
    tb.sim.run(until=discover_and_invoke(stack, client, "Hello%", name="x"))
    assert cache.lookup_discovery("Hello%") is not None
    tb.sim.run(until=stack.onserve.undeploy_service("HelloService"))
    # The undeploy hook dropped every cached artefact of the service...
    assert cache.lookup_discovery("Hello%") is None
    assert cache.lookup_wsdl("soap://appliance/HelloService") is None
    # ...so the next workflow fails with a clean not-found, instead of
    # invoking a cached endpoint that no longer exists.
    with pytest.raises((ServiceNotFound, SoapFault)):
        tb.sim.run(until=discover_and_invoke(stack, client, "Hello%",
                                             name="y"))


def test_replacement_upload_invalidates_client_caches():
    tb, stack, cache = cached_stack()
    client = stack.user_clients[0]
    tb.sim.run(until=discover_and_invoke(stack, client, "Hello%", name="x"))
    assert cache.lookup_wsdl("soap://appliance/HelloService") is not None
    # Replace the executable with one declaring a different interface.
    payload = make_payload("echo", size=int(KB(2)))
    tb.sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "hello.sh", payload,
        params_spec="name:string, shout:boolean"))
    # The republish hook dropped the cached discovery + WSDL, so the
    # next call re-fetches and generates a stub for the *new* spec.
    assert cache.lookup_discovery("Hello%") is None
    assert cache.lookup_wsdl("soap://appliance/HelloService") is None
    out = tb.sim.run(until=discover_and_invoke(stack, client, "Hello%",
                                               name="y", shout=True))
    assert out == "y\ntrue\n"  # the new parameter reached the executable
