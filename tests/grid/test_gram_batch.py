"""GRAM batch operations + status/cancel fault/trace parity."""

import pytest

from repro.core.context import RequestContext
from repro.errors import SubmissionRefused
from repro.faults import FaultSpec, fault_plane
from repro.grid import build_testbed
from repro.grid.rsl import JobDescription, generate_rsl
from repro.telemetry.events import bus
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
        yield tb.ftp(site).put(client, chain, "/scratch/sleep.bin", payload)
        ids = []
        for i, runtime in enumerate(runtimes):
            rsl = generate_rsl(JobDescription(
                executable="/scratch/sleep.bin",
                arguments=[str(runtime)],
                stdout=f"/scratch/out{i}.txt"))
            ids.append((yield gram.submit(client, chain, rsl)))
        return ids

    return tb.sim.run(until=tb.sim.process(flow()))


# ------------------------------------------------------------ batch ops

def test_fetch_output_many_matches_individual_fetches():
    tb = quick_testbed()
    chain, client = logon(tb)
    ids = submit_sleepers(tb, chain, client, [2.0, 3.0])
    gram = tb.gatekeepers["ncsa"]

    def flow():
        yield tb.sim.timeout(30.0)  # both done
        batch = yield gram.fetch_output_many(client, ids + ["job-lost"])
        singles = {}
        for job_id in ids:
            singles[job_id] = (yield gram.fetch_output(client, job_id))
        return batch, singles

    batch, singles = tb.sim.run(until=tb.sim.process(flow()))
    assert batch["job-lost"] is None
    for job_id in ids:
        assert batch[job_id] == singles[job_id]
    assert bus(tb.sim).counts().get("gram.fetch_output_many") == 1


def test_batch_control_bytes_amortize():
    tb = quick_testbed()
    chain, client = logon(tb)
    ids = submit_sleepers(tb, chain, client, [1.0] * 8)
    gram = tb.gatekeepers["ncsa"]

    def measure(op_factory):
        before_bytes = gram.control_bytes
        before_cpu = gram.head_cpu_modeled
        tb.sim.run(until=tb.sim.process(op_factory()))
        return (gram.control_bytes - before_bytes,
                gram.head_cpu_modeled - before_cpu)

    def batched():
        yield gram.fetch_output_many(client, ids)

    def individual():
        for job_id in ids:
            yield gram.fetch_output(client, job_id)

    batch_bytes, batch_cpu = measure(batched)
    single_bytes, single_cpu = measure(individual)
    # One envelope + marginal per-item bytes beats 8 full envelopes.
    assert batch_bytes < single_bytes / 2
    assert batch_cpu < single_cpu / 2
    assert gram.exchanges >= 9  # 1 batch + 8 singles (plus submits)


def test_empty_batch_is_free():
    tb = quick_testbed()
    chain, client = logon(tb)
    gram = tb.gatekeepers["ncsa"]
    before = (gram.control_bytes, gram.exchanges)

    def flow():
        return (yield gram.fetch_output_many(client, []))

    assert tb.sim.run(until=tb.sim.process(flow())) == {}
    assert (gram.control_bytes, gram.exchanges) == before


# ----------------------------------------- status/cancel fault + traces

def test_status_and_cancel_fail_during_outage():
    tb = quick_testbed()
    chain, client = logon(tb)
    ids = submit_sleepers(tb, chain, client, [300.0])
    gram = tb.gatekeepers["ncsa"]
    fault_plane(tb.sim).add(
        FaultSpec("site.outage", target="ncsa", window=(0.0, 1e9)))

    def status_flow():
        yield gram.status(client, ids[0])

    def cancel_flow():
        yield gram.cancel(client, ids[0])

    def batch_flow():
        yield gram.fetch_output_many(client, ids)

    for flow in (status_flow, cancel_flow, batch_flow):
        with pytest.raises(SubmissionRefused, match="outage"):
            tb.sim.run(until=tb.sim.process(flow()))


def test_status_and_cancel_record_spans():
    tb = quick_testbed()
    chain, client = logon(tb)
    ids = submit_sleepers(tb, chain, client, [300.0])
    gram = tb.gatekeepers["ncsa"]
    ctx = RequestContext.create(tb.sim)

    def flow():
        yield gram.status(client, ids[0], ctx=ctx)
        yield gram.cancel(client, ids[0], ctx=ctx)

    tb.sim.run(until=tb.sim.process(flow()))
    names = [s.name for s in ctx.spans()]
    assert "gram:status" in names
    assert "gram:cancel" in names
