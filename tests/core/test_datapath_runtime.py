"""End-to-end datapath mode: batched polling + session reuse in situ."""

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


def test_concurrent_invocations_share_batched_polls():
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
    # The polling ran through pollOutputs batches, not per-job loops...
    assert agent.batch_polls > 0
    counts = bus(sim).counts()
    assert counts.get("poller.batch", 0) == agent.batch_polls
    assert counts.get("poller.detect") == 3
    assert counts.get("core.output_detected") == 3
    # ...at least one of which actually multiplexed >1 job.
    batch_sizes = [ev.fields["jobs"]
                   for ev in bus(sim).events(kind="agent.poll_batch")]
    assert max(batch_sizes) > 1
    # Session reuse: three stagings, one GridFTP handshake.
    sessions = agent._ftp_sessions._sessions
    assert sum(s.handshakes for s in sessions.values()) == 1
    assert sum(s.ops for s in sessions.values()) == 3


def test_disabled_datapath_uses_per_job_polling():
    sim, tb, stack = deploy(n_users=1, datapath=False)
    upload(sim, tb, stack)
    out = sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "Sleeper%", seconds=3.0))
    assert out == "slept\n"
    counts = bus(sim).counts()
    assert counts.get("poller.batch", 0) == 0
    assert stack.agent.batch_polls == 0
    # The observational detection marker exists on the faithful path too.
    assert counts.get("core.output_detected") == 1
    # No session objects were ever created by the disabled pool.
    assert stack.agent._ftp_sessions._sessions == {}


def test_datapath_reports_polls_and_records_invocation():
    sim, tb, stack = deploy(n_users=1)
    upload(sim, tb, stack)
    sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "Sleeper%", seconds=4.0))
    runtime = next(iter(stack.onserve.runtimes.values()))
    report = runtime.reports[-1]
    assert report.ok
    assert report.polls >= 1
    assert report.job_id


def test_poll_mux_is_per_site_and_lazy():
    sim, tb, stack = deploy(n_users=1)
    site = next(iter(tb.gatekeepers))
    assert stack.onserve._poll_muxes == {}
    mux = stack.onserve.poll_mux(site)
    assert stack.onserve.poll_mux(site) is mux
    assert mux.pending == 0


def test_config_validation():
    """The mux bounds are derived where the mux is built: the faithful
    fixed interval is the cap, and the floor never exceeds it."""
    from repro.grid.poller import PollMux

    def bounds(**cfg_kw):
        sim, tb, stack = deploy(n_users=1, **cfg_kw)
        mux = stack.onserve.poll_mux(next(iter(tb.gatekeepers)))
        return mux.min_interval, mux.max_interval

    assert bounds() == (PollMux.MIN_INTERVAL, 9.0)
    assert bounds(poll_interval=42.0) == (PollMux.MIN_INTERVAL, 42.0)
    assert bounds(poll_interval=1.0) == (1.0, 1.0)


@pytest.mark.parametrize("datapath", [False, True])
def test_one_second_poll_interval_constructs_and_invokes(datapath):
    """Regression: ``OnServeConfig(poll_interval=1.0)`` used to raise
    "poll_max_interval must be >= poll_min_interval" — two options the
    caller never set, on a plane that may not even be on."""
    sim, tb, stack = deploy(n_users=1, datapath=datapath, poll_interval=1.0)
    upload(sim, tb, stack)
    assert sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "Sleeper%", seconds=3.0)) == "slept\n"
    report = next(iter(stack.onserve.runtimes.values())).reports[-1]
    assert report.ok and report.polls >= 1
