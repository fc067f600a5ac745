"""GRAM status/cancel: fault and trace parity with submit."""

import pytest

from repro.core.context import RequestContext
from repro.errors import SubmissionRefused
from repro.faults import FaultSpec, fault_plane
from repro.grid import build_testbed
from repro.grid.rsl import JobDescription, generate_rsl
from repro.units import Mbps
from repro.workloads import make_payload


def quick_testbed(**kw):
    kw.setdefault("n_sites", 2)
    kw.setdefault("nodes_per_site", 2)
    kw.setdefault("cores_per_node", 4)
    kw.setdefault("appliance_uplink", Mbps(10))
    return build_testbed(**kw)


def logon(tb, username="ada", passphrase="pw"):
    tb.new_grid_identity(username, passphrase)
    client = tb.appliance_host

    def flow():
        key, proxy, ee = yield tb.myproxy.logon(client, username, passphrase,
                                                lifetime=3600.0)
        return [proxy, ee]

    chain = tb.sim.run(until=tb.sim.process(flow()))
    return chain, client


def submit_sleepers(tb, chain, client, runtimes, site="ncsa"):
    """Stage a sleep payload and submit one job per runtime; ids."""
    payload = make_payload("sleep")
    gram = tb.gatekeepers[site]

    def flow():
        yield from tb.ftp(site).put(client, chain, "/scratch/sleep.bin",
                                    payload)
        ids = []
        for i, runtime in enumerate(runtimes):
            rsl = generate_rsl(JobDescription(
                executable="/scratch/sleep.bin",
                arguments=[str(runtime)],
                stdout=f"/scratch/out{i}.txt"))
            ids.append((yield from gram.submit(client, chain, rsl)))
        return ids

    return tb.sim.run(until=tb.sim.process(flow()))


# ----------------------------------------- status/cancel fault + traces

def test_status_and_cancel_fail_during_outage():
    tb = quick_testbed()
    chain, client = logon(tb)
    ids = submit_sleepers(tb, chain, client, [300.0])
    gram = tb.gatekeepers["ncsa"]
    fault_plane(tb.sim).add(
        FaultSpec("site.outage", target="ncsa", window=(0.0, 1e9)))

    def status_flow():
        yield from gram.status(client, ids[0])

    def cancel_flow():
        yield from gram.cancel(client, ids[0])

    for flow in (status_flow, cancel_flow):
        with pytest.raises(SubmissionRefused, match="outage"):
            tb.sim.run(until=tb.sim.process(flow()))


def test_status_and_cancel_record_spans():
    tb = quick_testbed()
    chain, client = logon(tb)
    ids = submit_sleepers(tb, chain, client, [300.0])
    gram = tb.gatekeepers["ncsa"]
    ctx = RequestContext.create(tb.sim)

    def flow():
        yield from gram.status(client, ids[0], ctx=ctx)
        yield from gram.cancel(client, ids[0], ctx=ctx)

    tb.sim.run(until=tb.sim.process(flow()))
    names = [s.name for s in ctx.spans()]
    assert "gram:status" in names
    assert "gram:cancel" in names
