"""End-to-end push path: subscription detection, fallback, failover."""

from unittest import mock

from repro.core.context import RequestContext
from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig, deploy_onserve
from repro.faults import FaultSpec
from repro.grid import build_testbed
from repro.grid.notify import JOB_STATES_TABLE
from repro.simkernel import Simulator
from repro.telemetry.events import EventBus, bus
from repro.units import KB, Mbps
from repro.workloads import make_payload

import pytest


def deploy(n_users=1, n_sites=1, **cfg_kw):
    sim = Simulator(seed=0)
    tb = build_testbed(sim=sim, n_sites=n_sites, nodes_per_site=2,
                       cores_per_node=4, appliance_uplink=Mbps(10),
                       n_users=n_users)
    cfg_kw.setdefault("notify", True)
    config = OnServeConfig(datapath=True, **cfg_kw)
    stack = sim.run(until=deploy_onserve(tb, config))
    return sim, tb, stack


def upload(sim, tb, stack):
    payload = make_payload("sleep", size=int(KB(32)))
    sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "sleeper.bin", payload,
        params_spec="seconds:double"))


def test_push_completion_runs_zero_poll_rounds():
    sim, tb, stack = deploy()
    upload(sim, tb, stack)
    out = sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "Sleeper%", seconds=5.0))
    assert out == "slept\n"
    counts = bus(sim).counts()
    # Detection came by subscription: no tentative poll at all.
    assert counts.get("agent.poll", 0) == 0
    assert counts.get("notify.publish", 0) == 1  # the terminal state
    detected = bus(sim).first("core.output_detected")
    assert detected.fields["pushed"] and detected.fields["polls"] == 0
    runtime = next(iter(stack.onserve.runtimes.values()))
    report = runtime.last_report
    assert report.ok and report.polls == 0
    # The scheduler finished the job exactly one propagation before.
    finish = bus(sim).first("sched.finish",
                            job_id=detected.fields["job_id"])
    lag = detected.ts - finish.ts
    assert lag == pytest.approx(stack.onserve.config.notify_propagation)


def test_a_notify_job_writes_one_state_frame_and_mirrors_nothing():
    """After ``attach_notify`` a notify-path invocation subscribes
    nothing to ``sched.start``, publishes one message and logs one
    ``job_states`` frame: the terminal state, inserted once."""
    subscribed = []
    real = EventBus.subscribe

    def spy(self, callback, kinds=None):
        subscribed.extend(kinds or ["*"])
        return real(self, callback, kinds)

    with mock.patch.object(EventBus, "subscribe", spy):
        sim, tb, stack = deploy()  # attaches every gatekeeper
        upload(sim, tb, stack)
        frames = []
        stack.dbmanager.db.wal.taps.append(frames.append)
        out = sim.run(until=discover_and_invoke(
            stack, stack.user_clients[0], "Sleeper%", seconds=3.0))
    assert out == "slept\n"
    assert "sched.start" not in subscribed
    state_frames = [[dml for dml in f[2] if dml[1] == JOB_STATES_TABLE]
                    for f in frames]
    assert [(dml[0], dml[3][2]) for dml in sum(state_frames, [])] \
        == [("insert", "done")]
    assert sum(1 for writes in state_frames if writes) == 1
    queue = stack.onserve.notify_queue
    assert [r["state"] for r in queue.db.select(JOB_STATES_TABLE,
                                                lambda r: True)] == ["done"]
    assert queue.depth == 0 and queue.delivered == queue.published == 1


def test_incapable_site_falls_back_to_per_job_polling():
    sim, tb, stack = deploy(notify_sites=())  # queue attached, no sites
    upload(sim, tb, stack)
    ctx = RequestContext.create(sim)
    out = sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "Sleeper%", seconds=5.0, ctx=ctx))
    assert out == "slept\n"
    # The ladder stepped down to the paper's rung even with datapath on:
    # this invocation's own waiter polled its job, one fetchOutput +
    # outputReady round per poll, then fetched the final output.
    detected = bus(sim).first("core.output_detected")
    polls = detected.fields["polls"]
    assert polls >= 1 and not detected.fields["pushed"]
    names = [s.name for s in ctx.spans()]
    assert names.count("agent:outputReady") == polls
    assert names.count("gram:fetch-output") == polls + 1
    counts = bus(sim).counts()
    assert counts.get("notify.publish", 0) == 0
    queue = stack.onserve.notify_queue
    assert queue.published == 0
    assert queue.db.select(JOB_STATES_TABLE, lambda r: True) == []


def test_mixed_capability_splits_by_site():
    sim, tb, stack = deploy(n_users=2, n_sites=2,
                            notify_sites=("ncsa",),
                            site_policy="round_robin")
    upload(sim, tb, stack)
    results = []

    def invoke(i):
        def op():
            out = yield discover_and_invoke(
                stack, stack.user_clients[i], "Sleeper%",
                seconds=4.0 + 3.0 * i)
            results.append(out)

        return sim.process(op(), name=f"invoke:{i}")

    sim.run(until=sim.all_of([invoke(i) for i in range(2)]))
    assert results == ["slept\n"] * 2
    pushed = {ev.fields["job_id"].split("-job-")[0]: ev.fields["pushed"]
              for ev in bus(sim).events(kind="core.output_detected")}
    assert pushed == {"ncsa": True, "sdsc": False}
    # job_states rows exist only where the capability does.
    queue = stack.onserve.notify_queue
    sites = {r["site"]
             for r in queue.db.select(JOB_STATES_TABLE, lambda r: True)}
    assert sites == {"ncsa"}


def test_lost_job_error_notification_drives_failover():
    sim, tb, stack = deploy(n_sites=2, site_policy="round_robin",
                            notify_sites=("*",))
    upload(sim, tb, stack)
    tb.install_faults([FaultSpec("gram.lost_job", max_fires=1)])
    out = sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "Sleeper%", seconds=4.0))
    assert out == "slept\n"
    counts = bus(sim).counts()
    # The notify-capable gatekeeper *pushed* the loss: JobNotFound came
    # from the error callback, not from a timed-out poll, and failover
    # landed the work on the other site.
    assert counts.get("core.failover", 0) == 1
    lost = [ev for ev in bus(sim).events(kind="notify.publish")
            if ev.fields["state"] == "lost"]
    assert len(lost) == 1
    queue = stack.onserve.notify_queue
    rows = queue.db.select(JOB_STATES_TABLE, lambda r: True)
    by_job = {r["job_id"]: r for r in rows}
    assert sorted(r["state"] for r in by_job.values()) == ["done", "lost"]


def test_config_validation_and_default_off():
    assert OnServeConfig().notify is False
    # notify off -> no queue object on the deployed stack at all.
    sim, tb, stack = deploy(notify=False)
    assert stack.onserve.notify_queue is None
