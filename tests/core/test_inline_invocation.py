"""One invocation, one process: ``execute`` runs where it is driven.

The generated service's workflow — DB load, agent calls, GridFTP PUT,
GRAM submit and the tentative-poll loop — is a chain of generators its
carrier drives with ``yield from``.  So a warm invocation starts no
process of its own, and interrupting the carrier unwinds every step of
it: nothing the invocation started keeps running on the grid's behalf.
"""

import pytest

from repro.core import RequestContext, deploy_onserve, discover_and_invoke
from repro.core.invocation import discover_service
from repro.grid import build_testbed
from repro.simkernel.process import Interrupt, Process
from repro.telemetry.events import bus
from repro.units import KB, Mbps
from repro.workloads import make_payload
from repro.ws.client import generate_stub


def faithful_stack():
    tb = build_testbed(n_sites=3, nodes_per_site=2, cores_per_node=4,
                       appliance_uplink=Mbps(8))
    stack = tb.sim.run(until=deploy_onserve(tb))
    tb.sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "hello.sh", make_payload("echo", size=int(KB(2))),
        description="demo", params_spec="name:string"))
    return tb, stack


def test_a_warm_execute_driven_inline_starts_no_process(monkeypatch):
    tb, stack = faithful_stack()
    sim, client = tb.sim, stack.user_clients[0]
    # Warm: the runtime's agent session is cached after one invocation.
    assert sim.run(until=discover_and_invoke(stack, client, "Hello%",
                                             name="warm")) == "warm\n"
    _name, endpoint, _wsdl = sim.run(until=discover_service(stack, client,
                                                            "Hello%"))
    stub = generate_stub(sim.run(until=client.fetch_wsdl(endpoint)))(client)

    def caller():
        return (yield from stub.execute(name="world"))

    outer = sim.process(caller())
    started = []
    real_init = Process.__init__

    def counting_init(self, *args, **kwargs):
        started.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    before = sim.events_processed
    assert sim.run(until=outer) == "world\n"
    assert started == []
    # The whole invocation — load, stage, submit, polls, the job — in
    # this many kernel events (the outer process's own start included).
    assert sim.events_processed - before == 111
    assert stack.onserve.runtimes["HelloService"].last_report.ok


def interrupt_when(tb, stack, inside):
    """Invoke Hello% in a process and interrupt that process once
    ``inside(rid)`` holds; the request id, once the simulation has run
    dry."""
    sim = tb.sim
    ctx = RequestContext.create(sim, principal="user")
    invoke = discover_and_invoke(stack, stack.user_clients[0], "Hello%",
                                 ctx=ctx, name="x")
    while not inside(ctx.request_id):
        sim.step()
    invoke.interrupt("crash")
    with pytest.raises(Interrupt):
        sim.run(until=invoke)
    sim.run()
    return ctx.request_id


def test_an_interrupt_inside_the_gridftp_put_unwinds_it():
    tb, stack = faithful_stack()
    rec = bus(tb.sim).record("gridftp.put", "gram.submit")

    def in_put(_rid):  # a data connection is open
        return any(ftp._streams.current > 0
                   for ftp in tb.ftp_servers.values())

    rid = interrupt_when(tb, stack, in_put)
    assert rec.events("gridftp.put", request_id=rid) == []
    assert rec.events("gram.submit", request_id=rid) == []


def test_an_interrupt_inside_a_tentative_poll_unwinds_the_loop():
    tb, stack = faithful_stack()
    rec = bus(tb.sim).record("agent.poll")

    def in_poll(rid):
        # The first round's fetch has returned; its existence probe,
        # and every later round, are still to come.
        return rec.events("agent.poll", request_id=rid) != []

    rid = interrupt_when(tb, stack, in_poll)
    assert len(rec.events("agent.poll", request_id=rid)) == 1
