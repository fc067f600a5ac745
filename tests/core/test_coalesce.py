"""Single-flight coalescing: unit semantics + the staged-transfer path."""

import pytest

from repro.core import OnServeConfig, deploy_onserve, discover_and_invoke
from repro.core.coalesce import SingleFlight
from repro.grid import build_testbed
from repro.simkernel.kernel import Simulator
from repro.units import KB, KBps
from repro.workloads import make_payload


# -- unit: SingleFlight on a bare kernel -----------------------------------


def slow_op(sim, log, value="v", delay=5.0, boom=None):
    def factory():
        log.append(("run", sim.now))
        yield sim.timeout(delay)
        if boom is not None:
            raise boom
        return value

    return factory


def test_disabled_is_a_pure_passthrough():
    sim = Simulator(seed=0)
    flights = SingleFlight(sim, enabled=False)
    log = []

    def caller():
        out = yield from flights.do("k", slow_op(sim, log), group="g")
        return out

    assert sim.run(until=sim.process(caller())) == "v"
    assert log == [("run", 0.0)]
    assert flights.stats() == {}  # no flights even recorded


def test_concurrent_callers_share_one_flight():
    sim = Simulator(seed=0)
    flights = SingleFlight(sim, enabled=True)
    log, results = [], []

    def caller(i):
        if i:
            yield sim.timeout(1.0 * i)  # arrive while the leader runs
        out = yield from flights.do("k", slow_op(sim, log), group="g")
        results.append((i, sim.now, out))

    procs = [sim.process(caller(i)) for i in range(3)]
    sim.run(until=sim.all_of(procs))
    assert log == [("run", 0.0)]  # the factory ran exactly once
    assert results == [(0, 5.0, "v"), (1, 5.0, "v"), (2, 5.0, "v")]
    assert flights.stats() == {"g": {"flights": 1, "joins": 2}}
    assert not flights.inflight("k")


def test_leader_failure_reaches_every_joiner():
    sim = Simulator(seed=0)
    flights = SingleFlight(sim, enabled=True)
    log, outcomes = [], []

    def caller(i):
        if i:
            yield sim.timeout(1.0)
        try:
            yield from flights.do(
                "k", slow_op(sim, log, boom=RuntimeError("down")), group="g")
        except RuntimeError as exc:
            outcomes.append((i, str(exc)))

    procs = [sim.process(caller(i)) for i in range(2)]
    sim.run(until=sim.all_of(procs))
    assert outcomes == [(0, "down"), (1, "down")]
    assert not flights.inflight("k")  # a failed flight is over


def test_landed_flights_are_not_memoised():
    sim = Simulator(seed=0)
    flights = SingleFlight(sim, enabled=True)
    log = []

    def caller():
        first = yield from flights.do("k", slow_op(sim, log), group="g")
        second = yield from flights.do("k", slow_op(sim, log), group="g")
        return (first, second)

    assert sim.run(until=sim.process(caller())) == ("v", "v")
    assert len(log) == 2  # sequential callers each run the operation
    assert flights.stats() == {"g": {"flights": 2, "joins": 0}}


def test_distinct_keys_fly_separately():
    sim = Simulator(seed=0)
    flights = SingleFlight(sim, enabled=True)
    log = []

    def caller(key):
        return (yield from flights.do(key, slow_op(sim, log), group="g"))

    procs = [sim.process(caller(k)) for k in ("a", "b")]
    sim.run(until=sim.all_of(procs))
    assert len(log) == 2
    assert flights.stats() == {"g": {"flights": 2, "joins": 0}}


# -- integration: the invocation hot path ----------------------------------


def coalesced_stack(n_users=4):
    tb = build_testbed(n_sites=2, nodes_per_site=2, cores_per_node=4,
                       appliance_uplink=KBps(200), n_users=n_users)
    stack = tb.sim.run(until=deploy_onserve(
        tb, OnServeConfig(coalesce=True, upload_cache=True)))
    payload = make_payload("echo", size=int(KB(64)))
    tb.sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "hello.sh", payload, params_spec="name:string"))
    return tb, stack


def test_single_flight_staging_one_transfer_per_site_path():
    tb, stack = coalesced_stack(n_users=4)
    uploads0 = stack.agent.uploads
    procs = [discover_and_invoke(stack, stack.user_clients[i], "Hello%",
                                 name=f"u{i}")
             for i in range(4)]
    tb.sim.run(until=tb.sim.all_of(procs))
    assert sorted(p.value for p in procs) == [f"u{i}\n" for i in range(4)]
    # Exactly one GridFTP transfer for the shared (site, path): the
    # leader staged it, the three joiners coalesced onto that flight
    # (or hit the staged cache if they arrived after it landed).
    assert stack.agent.uploads - uploads0 == 1
    stats = stack.onserve.flights.stats()
    assert stats["staging"]["flights"] == 1
    coalesced = (stats["staging"]["joins"]
                 + stack.onserve.bus.counts().get("cache.hit", 0))
    assert coalesced >= 3


def test_concurrent_invocations_share_db_fetch_and_logon():
    tb, stack = coalesced_stack(n_users=4)
    procs = [discover_and_invoke(stack, stack.user_clients[i], "Hello%",
                                 name=f"u{i}")
             for i in range(4)]
    tb.sim.run(until=tb.sim.all_of(procs))
    stats = stack.onserve.flights.stats()
    # One DB decompression for the wave; everyone else joined it.
    assert stats["db-load"]["flights"] == 1
    assert stats["db-load"]["joins"] == 3
    # The appliance held one agent session across all four requests
    # (deploy_onserve itself logs on during startup checks).
    auths = stack.onserve.bus.counts().get("agent.auth", 0)
    assert auths <= 2


def test_one_lease_read_per_session_check(monkeypatch):
    """A coalesced invocation asks for the session three times (auth,
    upload, submit) and each ask reads the lease once — the second read
    that only refreshed a never-consulted expiry is gone."""
    tb, stack = coalesced_stack(n_users=1)
    tb.sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "Hello%", name="warm-up"))
    store = stack.onserve.store
    reads, real = [], store.get_lease
    monkeypatch.setattr(store, "get_lease",
                        lambda *a: (reads.append(a), real(*a))[1])
    out = tb.sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "Hello%", name="counted"))
    # upload_cache is on and the copy is staged: no upload_try this time.
    assert out == "counted\n" and len(reads) == 2
    assert not hasattr(stack.onserve, "agent_session_expires")


def test_coalescing_defaults_off():
    sim_stack = build_testbed(n_sites=2, nodes_per_site=2, cores_per_node=4)
    stack = sim_stack.sim.run(until=deploy_onserve(sim_stack))
    assert stack.onserve.config.coalesce is False
    assert stack.onserve.flights.enabled is False


def test_one_sha256_per_loaded_executable(monkeypatch):
    import hashlib

    tb, stack = coalesced_stack(n_users=4)
    payload = make_payload("echo", size=int(KB(64)))
    real, hashed = hashlib.sha256, []

    def counting(data=b"", **kw):
        if data == payload:
            hashed.append(len(data))
        return real(data, **kw)

    monkeypatch.setattr(hashlib, "sha256", counting)
    # One invocation consults the upload cache, keys the staging flight
    # and marks the copy staged — all three read the load's one digest.
    out = tb.sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "Hello%", name="solo"))
    assert out == "solo\n" and len(hashed) == 1
    digest = real(payload).hexdigest()
    staged = stack.onserve.store.db.select("staged_copies")
    assert staged and all(row["digest"] == digest for row in staged)
    # A wave that joins one db-load flight shares the object and its hash.
    procs = [discover_and_invoke(stack, stack.user_clients[i], "Hello%",
                                 name=f"u{i}") for i in range(4)]
    tb.sim.run(until=tb.sim.all_of(procs))
    loads = stack.onserve.flights.stats()["db-load"]["flights"]
    assert loads == 2 and len(hashed) == loads
    # That second load admitted the version to the DbManager's memo, so
    # a third neither inflates the BLOB nor hashes the payload again.
    import zlib
    inflated = []
    real_inflate = zlib.decompress
    monkeypatch.setattr(
        zlib, "decompress",
        lambda data, *a, **kw: (inflated.append(len(data)),
                                real_inflate(data, *a, **kw))[1])
    out = tb.sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "Hello%", name="third"))
    assert out == "third\n"
    assert stack.onserve.flights.stats()["db-load"]["flights"] == 3
    assert len(hashed) == 2 and inflated == []
