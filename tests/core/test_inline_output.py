"""Output on the completion push, and the ladder back to ``fetchOutput``.

A notify-capable gatekeeper puts a ``done`` job's output on the terminal
notification when it fits ``GramGatekeeper.INLINE_OUTPUT_BYTES``; the
runtime then skips its final ``fetchOutput``.  Every other terminal
message carries none and the runtime fetches exactly as before: a
replayed subscription (the table never stores the output), an output
over the cap, a failed or a lost job.
"""

import string
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig, deploy_onserve
from repro.db.engine import Database
from repro.faults import FaultSpec
from repro.grid import build_testbed
from repro.grid.gram import GramGatekeeper
from repro.grid.notify import JOB_STATES_TABLE, NotifyQueue
from repro.grid.rsl import JobDescription, generate_rsl
from repro.simkernel import Simulator
from repro.telemetry.events import bus
from repro.units import Mbps
from repro.workloads import make_payload

CAP = GramGatekeeper.INLINE_OUTPUT_BYTES


def deploy(**cfg_kw):
    sim = Simulator(seed=0)
    tb = build_testbed(sim=sim, n_sites=1, nodes_per_site=2,
                       cores_per_node=4, appliance_uplink=Mbps(10))
    config = OnServeConfig(datapath=True, notify=True, **cfg_kw)
    stack = sim.run(until=deploy_onserve(tb, config))
    sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "echo.sh", make_payload("echo"),
        params_spec="token:string"))
    return sim, tb, stack


def invoke(token, **cfg_kw):
    """One echo invocation on a notify site: what ``execute()`` returned
    and the counters that say how the output got to the appliance."""
    sim, tb, stack = deploy(**cfg_kw)
    out = sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "Echo%", token=token))
    [gram] = tb.gatekeepers.values()
    counts = bus(sim).counts()
    return out, {
        "fetches": counts.get("gram.fetch_output", 0),
        "agent_polls": stack.agent.output_polls,
        "notify_bytes": gram.notify_bytes,
        "notifications": gram.notifications,
        "wal_appends": counts.get("wal.append", 0),
        "state_rows": stack.dbmanager.db.select(JOB_STATES_TABLE,
                                                lambda r: True),
    }


# ------------------------------------------------------------ in situ

@pytest.mark.parametrize("size,inline", [
    (2, True), (CAP, True), (CAP + 1, False)],
    ids=["small", "at-cap", "just-over-cap"])
def test_done_output_rides_the_push_up_to_the_cap(size, inline):
    token = "x" * (size - 1)  # echo adds the newline
    out, seen = invoke(token)
    assert out == token + "\n"
    assert seen["fetches"] == seen["agent_polls"] == (0 if inline else 1)
    # The inline bytes are booked as notification traffic.
    assert seen["notify_bytes"] == (
        seen["notifications"] * GramGatekeeper.NOTIFY_BYTES
        + (size if inline else 0))
    # One push per job, and the table does not store it.
    assert seen["notifications"] == 1
    assert seen["state_rows"] and all(
        "output" not in row for row in seen["state_rows"])


def test_inline_output_writes_no_extra_wal_frames():
    _out, inline = invoke("abc")
    with mock.patch.object(GramGatekeeper, "INLINE_OUTPUT_BYTES", -1):
        _out, fetched = invoke("abc")
    assert (inline["fetches"], fetched["fetches"]) == (0, 1)
    assert inline["wal_appends"] == fetched["wal_appends"]
    assert inline["state_rows"] == fetched["state_rows"]


_TOKENS = st.text(alphabet=string.ascii_letters + string.digits + "-_.:",
                  max_size=2 * CAP)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(token=_TOKENS)
def test_execute_returns_the_same_bytes_inline_or_fetched(token):
    """Property: for any output size and content, the bytes ``execute()``
    returns do not depend on whether they came on the push or from the
    fetch."""
    inline_out, inline = invoke(token)
    with mock.patch.object(GramGatekeeper, "INLINE_OUTPUT_BYTES", -1):
        fetched_out, fetched = invoke(token)
    assert inline_out == fetched_out == token + "\n"
    assert fetched["fetches"] == 1
    assert inline["fetches"] == (0 if len(token) + 1 <= CAP else 1)


def test_a_lost_job_fails_over_and_the_next_site_pushes_the_output():
    sim = Simulator(seed=0)
    tb = build_testbed(sim=sim, n_sites=2, nodes_per_site=2,
                       cores_per_node=4, appliance_uplink=Mbps(10))
    stack = sim.run(until=deploy_onserve(tb, OnServeConfig(
        datapath=True, notify=True, site_policy="round_robin")))
    sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "echo.sh", make_payload("echo"),
        params_spec="token:string"))
    tb.install_faults([FaultSpec("gram.lost_job", max_fires=1)])
    out = sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "Echo%", token="t"))
    assert out == "t\n"
    counts = bus(sim).counts()
    assert counts.get("core.failover", 0) == 1
    # The lost job's push carried nothing; the second site's done push
    # carried the output, so nothing was fetched anywhere.
    assert counts.get("gram.fetch_output", 0) == 0


# ------------------------------------------- the gatekeeper's message

def _push(stage=True, faults=()):
    """Submit one echo job to a notify-capable gatekeeper; the terminal
    payload its subscriber receives, the queue, the job id, the
    gatekeeper and the testbed."""
    tb = build_testbed(n_sites=1, nodes_per_site=1, cores_per_node=2,
                       appliance_uplink=Mbps(10))
    tb.new_grid_identity("ada", "pw")
    client = tb.appliance_host
    queue = NotifyQueue(tb.sim, Database())
    [gram] = tb.gatekeepers.values()
    gram.attach_notify(queue)
    tb.install_faults(list(faults))

    def flow():
        _key, proxy, ee = yield tb.myproxy.logon(client, "ada", "pw",
                                                 lifetime=3600.0)
        chain = [proxy, ee]
        if stage:
            yield from tb.ftp(gram.site.name).put(
                client, chain, "/x/echo.sh", make_payload("echo", runtime="1"))
        job_id = yield from gram.submit(client, chain, generate_rsl(
            JobDescription(executable="/x/echo.sh", arguments=["hi"],
                           stdout="/x/out")))
        return (yield queue.subscribe(gram.site.name, job_id)), job_id

    payload, job_id = tb.sim.run(until=tb.sim.process(flow()))
    return payload, queue, job_id, gram, tb


def test_done_push_carries_the_output():
    payload, queue, _job, gram, _tb = _push()
    assert payload["state"] == "done" and payload["output"] == b"hi\n"
    assert queue.replayed == 0  # it came on the delivery itself
    assert gram.notify_bytes == (gram.notifications * gram.NOTIFY_BYTES
                                 + len(b"hi\n"))


@pytest.mark.parametrize("state,kw", [
    ("failed", dict(stage=False)),  # executable not staged
    ("lost", dict(faults=[FaultSpec("gram.lost_job", max_fires=1)])),
])
def test_failed_and_lost_pushes_carry_no_output(state, kw):
    payload, _queue, _job, gram, _tb = _push(**kw)
    assert payload["state"] == state and payload["output"] is None
    assert gram.notify_bytes == gram.notifications * gram.NOTIFY_BYTES


def test_a_replayed_subscription_carries_no_output():
    payload, queue, job_id, _gram, tb = _push()
    assert payload["output"] == b"hi\n"
    row = queue.job_state(job_id)
    assert row["state"] == "done" and "output" not in row
    replay = tb.sim.run(until=queue.subscribe("ncsa", job_id))
    assert replay["state"] == "done" and replay["output"] is None
    assert queue.replayed == 1
