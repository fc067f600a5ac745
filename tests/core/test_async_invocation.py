"""Tests for asynchronous invocation (submit / poll / result)."""

import pytest

from repro.core import OnServeConfig, deploy_onserve
from repro.core.invocation import discover_service
from repro.errors import SoapFault
from repro.grid import build_testbed
from repro.units import KB, Mbps
from repro.workloads import make_payload
from repro.ws.client import generate_stub


@pytest.fixture()
def env():
    tb = build_testbed(n_sites=2, nodes_per_site=2, cores_per_node=4,
                       appliance_uplink=Mbps(10))
    stack = tb.sim.run(until=deploy_onserve(tb))
    payload = make_payload("fixed", size=int(KB(2)), runtime="120",
                           output_bytes="512")
    tb.sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "slow.sh", payload, params_spec=""))
    client = stack.user_clients[0]
    return tb, stack, client


def stub_for(tb, stack, client, pattern="Slow%"):
    def flow():
        _name, endpoint, _ = yield discover_service(stack, client, pattern)
        document = yield client.fetch_wsdl(endpoint)
        return generate_stub(document)(client)

    return tb.sim.run(until=tb.sim.process(flow()))


def test_submit_returns_immediately(env):
    tb, stack, client = env
    stub = stub_for(tb, stack, client)
    t0 = tb.sim.now
    ticket = tb.sim.run(until=stub.submit())
    assert ticket.startswith("tkt-")
    # Submission is near-instant; the 120 s job runs in the background.
    assert tb.sim.now - t0 < 5.0


def test_poll_then_result_roundtrip(env):
    tb, stack, client = env
    stub = stub_for(tb, stack, client)
    ticket = tb.sim.run(until=stub.submit())
    assert tb.sim.run(until=stub.poll(ticket=ticket)) is False

    def wait_and_collect():
        while True:
            done = yield stub.poll(ticket=ticket)
            if done:
                break
            yield tb.sim.timeout(15.0)
        return (yield stub.result(ticket=ticket))

    output = tb.sim.run(until=tb.sim.process(wait_and_collect()))
    assert output.startswith("fixed-profile")
    # The ticket is consumed.
    with pytest.raises(SoapFault, match="unknown ticket"):
        tb.sim.run(until=stub.result(ticket=ticket))


def test_result_before_completion_faults(env):
    tb, stack, client = env
    stub = stub_for(tb, stack, client)
    ticket = tb.sim.run(until=stub.submit())
    with pytest.raises(SoapFault, match="still running"):
        tb.sim.run(until=stub.result(ticket=ticket))


def test_failed_async_job_faults_at_result(env, monkeypatch):
    from repro.core.grid_service import GridServiceRuntime
    tb, stack, client = env
    # The job needs 120 s -> killed.
    monkeypatch.setattr(GridServiceRuntime, "JOB_WALLTIME", 30)
    stack.onserve.config.watchdog_timeout = 300.0
    stack.onserve.config.poll_interval = 5.0
    stub = stub_for(tb, stack, client)
    ticket = tb.sim.run(until=stub.submit())
    tb.sim.run(until=tb.sim.timeout(400.0))
    assert tb.sim.run(until=stub.poll(ticket=ticket)) is True
    with pytest.raises(SoapFault, match="failed"):
        tb.sim.run(until=stub.result(ticket=ticket))


def test_concurrent_async_submissions(env):
    tb, stack, client = env
    stub = stub_for(tb, stack, client)
    tickets = [tb.sim.run(until=stub.submit()) for _ in range(3)]
    assert len(set(tickets)) == 3

    def collect(ticket):
        while not (yield stub.poll(ticket=ticket)):
            yield tb.sim.timeout(15.0)
        return (yield stub.result(ticket=ticket))

    procs = [tb.sim.process(collect(t)) for t in tickets]
    done = tb.sim.all_of(procs)
    results = tb.sim.run(until=done)
    assert all(v.startswith("fixed-profile") for v in results.values())
    # All three ran as separate grid jobs.
    history = stack.dbmanager.db.find_eq("invocations", "service",
                                         "SlowService")
    assert len(history) == 3
