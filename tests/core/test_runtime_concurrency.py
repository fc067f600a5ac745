"""Re-entrancy: one generated service, many simultaneous callers."""

import pytest

from repro.core import deploy_onserve, discover_and_invoke
from repro.grid import build_testbed
from repro.telemetry.events import bus
from repro.units import KB, Mbps
from repro.workloads import make_payload


def test_concurrent_executes_on_one_service():
    tb = build_testbed(n_sites=3, nodes_per_site=4, cores_per_node=8,
                       appliance_uplink=Mbps(20), n_users=4)
    stack = tb.sim.run(until=deploy_onserve(tb))
    payload = make_payload("echo", size=int(KB(2)))
    tb.sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "echo.sh", payload, params_spec="who:string"))
    results = {}

    def caller(i, client):
        out = yield discover_and_invoke(stack, client, "Echo%",
                                        who=f"caller-{i}")
        results[i] = out

    for i, client in enumerate(stack.user_clients):
        tb.sim.process(caller(i, client))
    tb.sim.run()

    assert results == {i: f"caller-{i}\n" for i in range(4)}
    runtime = stack.onserve.runtimes["EchoService"]
    # Four overlapping executes, four distinct grid jobs, no tag clashes.
    assert (runtime.invocations, runtime.invocations_ok) == (4, 4)
    job_ids = {ev.fields["job_id"]
               for ev in bus(tb.sim).events(kind="gram.submit")}
    assert len(job_ids) == 4
    # One shared agent session served all of them.
    assert tb.myproxy.logons_served == 1


def test_concurrent_executes_write_distinct_history_rows():
    tb = build_testbed(n_sites=2, nodes_per_site=2, cores_per_node=4,
                       appliance_uplink=Mbps(20), n_users=3)
    stack = tb.sim.run(until=deploy_onserve(tb))
    payload = make_payload("fixed", size=int(KB(2)), runtime="20")
    tb.sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "f.sh", payload))

    procs = [discover_and_invoke(stack, c, "F%")
             for c in stack.user_clients]
    tb.sim.run(until=tb.sim.all_of(procs))
    rows = stack.dbmanager.db.select("invocations")
    assert len(rows) == 3
    assert len({r["id"] for r in rows}) == 3
