"""The agent session cache: one per runtime, or one per replica under
coalescing, held in memory beside the agent that minted it."""

from repro.core import OnServeConfig, deploy_onserve, discover_and_invoke
from repro.core.fabric import deploy_fabric
from repro.core.session import SessionCache
from repro.grid import build_testbed
from repro.simkernel import Simulator
from repro.telemetry.events import bus
from repro.units import KB
from repro.workloads import make_payload


def publish(sim, tb, stack, filename="hello.sh"):
    payload = make_payload("echo", size=int(KB(4)))
    sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], filename, payload, params_spec="name:string"))


def invoke(sim, stack, name):
    return sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "Hello%", name=name))


def test_a_coalesced_service_logs_on_once_per_replica():
    sim = Simulator(seed=0)
    tb = build_testbed(sim=sim, n_users=1)
    stack = sim.run(until=deploy_fabric(tb, OnServeConfig(coalesce=True),
                                        replicas=2))
    publish(sim, tb, stack)
    auths = bus(sim).record("agent.auth")
    client = stack.user_clients[0]
    for onserve in stack.onserves:
        sim.run(until=sim.process(
            onserve.ensure_local_service("HelloService")))
        endpoint = onserve.soap_server.endpoint_for("HelloService")
        for i in range(2):
            out = sim.run(until=sim.process(client.call(
                endpoint, "execute", name=f"{onserve.replica}-{i}")))
            assert out == f"{onserve.replica}-{i}\n"
    # Two invocations through each replica: one logon per replica, each
    # with that replica's own agent, and the runtime holds the
    # replica's cache rather than one of its own.
    assert len(auths.events("agent.auth")) == 2
    for onserve in stack.onserves:
        assert len(onserve.agent._sessions) == 1
        runtime = onserve.runtimes["HelloService"]
        assert runtime.session_cache is onserve.session_cache
        assert onserve.session_cache.session in onserve.agent._sessions


def test_without_coalescing_each_runtime_owns_its_cache():
    tb = build_testbed(n_sites=2, nodes_per_site=2, cores_per_node=4)
    sim = tb.sim
    stack = sim.run(until=deploy_onserve(tb))
    publish(sim, tb, stack)
    assert invoke(sim, stack, "solo") == "solo\n"
    runtime = stack.onserve.runtimes["HelloService"]
    assert runtime.session_cache is not stack.onserve.session_cache
    assert runtime.session_cache.session is not None
    assert stack.onserve.session_cache.session is None


def test_dropping_a_stale_session_keeps_the_newer_one():
    tb = build_testbed(n_sites=2, nodes_per_site=2, cores_per_node=4)
    sim = tb.sim
    stack = sim.run(until=deploy_onserve(tb))
    cache = SessionCache(stack.onserve)
    first = sim.run(until=sim.process(cache.get()))
    cache.drop(first)
    assert cache.session is None
    second = sim.run(until=sim.process(cache.get()))
    assert second != first
    # A failure of a call made with the old session must not revoke
    # the session a later logon cached.
    cache.drop(first)
    cache.drop(None)
    assert cache.session == second
    assert sim.run(until=sim.process(cache.get())) == second


def test_concurrent_callers_share_one_logon():
    tb = build_testbed(n_sites=2, nodes_per_site=2, cores_per_node=4)
    sim = tb.sim
    stack = sim.run(until=deploy_onserve(tb))
    cache = SessionCache(stack.onserve)
    lookups = bus(sim).record("agent.auth", "cache.hit", "cache.miss")
    procs = [sim.process(cache.get()) for _ in range(3)]
    sim.run(until=sim.all_of(procs))
    assert len({p.value for p in procs}) == 1
    # One logon led (one miss); the others waited on it and neither
    # logged on nor counted a lookup of their own.
    assert [ev.kind for ev in lookups.events()] == ["cache.miss",
                                                    "agent.auth"]


def test_a_coalesced_appliance_redeployed_over_recovered_data_logs_on_again():
    tb = build_testbed(n_sites=2, nodes_per_site=2, cores_per_node=4)
    sim = tb.sim
    stack = sim.run(until=deploy_onserve(tb, OnServeConfig(coalesce=True)))
    publish(sim, tb, stack)
    assert invoke(sim, stack, "first") == "first\n"
    # The crash: only the WAL survives, and the old agent's sessions
    # die with its container.
    recovered = stack.dbmanager.recover_from_crash()
    stack.fabric.unregister(stack.soap_server)
    stack2 = sim.run(until=deploy_onserve(tb, OnServeConfig(coalesce=True),
                                          dbmanager=recovered))
    auths = bus(sim).record("agent.auth")
    assert invoke(sim, stack2, "second") == "second\n"
    assert invoke(sim, stack2, "third") == "third\n"
    # The new agent minted one session, and the second invocation
    # reused it.
    assert len(auths.events("agent.auth")) == 1
    assert len(stack2.agent._sessions) == 1
