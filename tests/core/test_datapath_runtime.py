"""End-to-end datapath mode: per-job polling over pooled channels."""

import pytest

from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig, deploy_onserve
from repro.grid import build_testbed
from repro.simkernel import Simulator
from repro.telemetry.events import bus
from repro.units import KB, Mbps
from repro.workloads import make_payload


def deploy(n_users=3, datapath=True, **cfg_kw):
    sim = Simulator(seed=0)
    tb = build_testbed(sim=sim, n_sites=1, nodes_per_site=2,
                       cores_per_node=4, appliance_uplink=Mbps(10),
                       n_users=n_users)
    config = OnServeConfig(datapath=datapath, **cfg_kw)
    stack = sim.run(until=deploy_onserve(tb, config))
    return sim, tb, stack


def upload(sim, tb, stack):
    payload = make_payload("sleep", size=int(KB(32)))
    sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "sleeper.bin", payload,
        params_spec="seconds:double"))


def test_concurrent_invocations_poll_per_job_on_pooled_channels():
    sim, tb, stack = deploy(n_users=3)
    upload(sim, tb, stack)
    results = []

    def invoke(i):
        def op():
            out = yield discover_and_invoke(
                stack, stack.user_clients[i], "Sleeper%",
                seconds=5.0 + 4.0 * i)
            results.append(out)

        return sim.process(op(), name=f"invoke:{i}")

    sim.run(until=sim.all_of([invoke(i) for i in range(3)]))
    assert results == ["slept\n"] * 3
    agent = stack.agent
    # No site pushes, so each job's own waiter polled it: one
    # fetchOutput per poll plus the final fetch.
    detected = bus(sim).events(kind="core.output_detected")
    assert len(detected) == 3
    polls = sum(ev.fields["polls"] for ev in detected)
    assert polls >= 3 and agent.output_polls == polls + 3
    # Channel reuse: three stagings, one GridFTP handshake; three
    # submits, one GRAM handshake.
    channels = agent._channels._channels
    for protocol in ("gridftp", "gram"):
        mine = [c for key, c in channels.items() if key[0] == protocol]
        assert sum(c.handshakes for c in mine) == 1
        assert sum(c.ops for c in mine) == 3


def test_disabled_datapath_uses_per_job_polling():
    sim, tb, stack = deploy(n_users=1, datapath=False)
    upload(sim, tb, stack)
    out = sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "Sleeper%", seconds=3.0))
    assert out == "slept\n"
    counts = bus(sim).counts()
    # The observational detection marker exists on the faithful path too.
    assert counts.get("core.output_detected") == 1
    # No channel objects were ever created by the disabled pool.
    assert stack.agent._channels._channels == {}


def test_datapath_reports_polls_and_records_invocation():
    sim, tb, stack = deploy(n_users=1)
    upload(sim, tb, stack)
    sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "Sleeper%", seconds=4.0))
    runtime = next(iter(stack.onserve.runtimes.values()))
    report = runtime.last_report
    assert report.ok
    assert report.polls >= 1
    assert report.job_id


@pytest.mark.parametrize("datapath", [False, True])
def test_one_second_poll_interval_constructs_and_invokes(datapath):
    """Regression: ``OnServeConfig(poll_interval=1.0)`` used to raise
    "poll_max_interval must be >= poll_min_interval" — two options the
    caller never set, on a plane that may not even be on."""
    sim, tb, stack = deploy(n_users=1, datapath=datapath, poll_interval=1.0)
    upload(sim, tb, stack)
    assert sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "Sleeper%", seconds=3.0)) == "slept\n"
    report = next(iter(stack.onserve.runtimes.values())).last_report
    assert report.ok and report.polls >= 1
