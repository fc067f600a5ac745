"""The completion ladder: every rung × every outcome through one tail.

``GridServiceRuntime._await_output`` picks one detector per site (status
ablation → notify → PollMux → faithful tentative poll) and funnels all
of them into one tail.  Each cell below runs the real runtime over a
real deployment (real ``NotifyQueue``, real ``PollMux``, real watchdog
helpers) against a scripted agent stub that decides the job's fate, and
checks what the tail promises: the exception type, ``report.polls``,
the ``core.output_detected`` fields and exactly one final
``fetchOutput`` after a successful detection.
"""

import pytest

from repro.core.context import RequestContext
from repro.core.datastructures import ExecutableRecord
from repro.core.grid_service import GridServiceRuntime, InvocationReport
from repro.core.onserve import OnServeConfig, deploy_onserve
from repro.cyberaide.jobspec import CyberaideJobSpec
from repro.errors import JobError, JobNotFound, WatchdogTimeout
from repro.grid import build_testbed
from repro.simkernel import Simulator
from repro.telemetry.events import bus

SITE = "ncsa"
JOB_ID = "ncsa-job-00001"
#: The job ends this long after the wait starts.
JOB_SECONDS = 20.0
OUTPUT = b"42\n"

RUNGS = {
    "status": dict(status_supported=True),
    "notify": dict(notify=True),
    "mux": dict(datapath=True),
    "faithful": dict(),
}


class ScriptedAgent:
    """Stands in for the agent stub: one job whose fate is *outcome*."""

    def __init__(self, sim, outcome):
        self.sim = sim
        self.outcome = outcome
        self.finish_at = sim.now + JOB_SECONDS
        #: Every operation called, in order (the bus marker joins it).
        self.log = []

    @property
    def finished(self):
        return self.outcome != "timeout" and self.sim.now >= self.finish_at

    def _reply(self, op, value=None, error=None):
        self.log.append(op)

        def exchange():
            yield self.sim.timeout(0.1)
            if error is not None:
                raise error
            return value

        return self.sim.process(exchange(), name=f"scripted:{op}")

    def _lost(self):
        if self.outcome == "lost" and self.finished:
            return JobNotFound(f"gatekeeper has no record of {JOB_ID!r}")
        return None

    def authenticate(self, **_kw):
        return self._reply("authenticate", "session-1")

    def jobStatus(self, **_kw):
        state = "active"
        if self.finished:
            state = "failed" if self.outcome == "failed" else "done"
        return self._reply("jobStatus", state, self._lost())

    def fetchOutput(self, **_kw):
        data = b""
        if self.finished:
            # A job that died on the grid leaves a zero-filled stdout.
            data = b"\0" * 8 if self.outcome == "failed" else OUTPUT
        return self._reply("fetchOutput", data, self._lost())

    def outputReady(self, **_kw):
        return self._reply("outputReady", self.finished)

    def pollOutputs(self, jobs, **_kw):
        flag = "0"
        if self.finished:
            flag = "E" if self.outcome == "lost" else "1"
        return self._reply("pollOutputs", ";".join(
            f"{item.split('|')[0]}|{flag}|0" for item in jobs.split(";")))


def run_cell(rung, outcome):
    sim = Simulator(seed=0)
    tb = build_testbed(sim=sim, n_sites=1, nodes_per_site=1,
                       cores_per_node=2, n_users=1)
    config = OnServeConfig(watchdog_timeout=60.0, **RUNGS[rung])
    onserve = sim.run(until=deploy_onserve(tb, config)).onserve
    agent = onserve.agent_stub = ScriptedAgent(sim, outcome)
    bus(sim).subscribe(lambda ev: agent.log.append("detected"),
                       kinds=("core.output_detected",))
    runtime = GridServiceRuntime(onserve, ExecutableRecord(
        "job.sh", "", [], size=1, uploaded_by="test", uploaded_at=0.0))
    report = InvocationReport("job.sh", sim.now)
    t0 = sim.now

    def publisher():
        # What a notify-capable gatekeeper does when the job ends.
        yield sim.timeout(JOB_SECONDS)
        onserve.notify_queue.publish(SITE, JOB_ID, outcome, terminal=True,
                                     error=outcome == "lost")

    if rung == "notify" and outcome != "timeout":
        sim.process(publisher(), name="test:publisher")
    waiter = sim.process(runtime._await_output(
        "session-1", SITE, CyberaideJobSpec("job.sh"), "i000001", JOB_ID,
        report, RequestContext.create(sim, principal="test")),
        name="test:await-output")
    error = output = None
    try:
        output = sim.run(until=waiter)
    except (JobError, JobNotFound, WatchdogTimeout) as exc:
        error = exc
    detected = bus(sim).first("core.output_detected")
    return onserve, agent, report, output, error, detected, sim.now - t0


#: (rung, outcome) -> (exception type or None, detection reached the tail).
#: The poll rungs learn of a lost job from the raised lookup itself, and
#: of a failed one only from the zero-filled final output.
CELLS = {
    ("status", "done"): (None, True),
    ("status", "failed"): (JobError, True),
    ("status", "lost"): (JobNotFound, False),
    ("status", "timeout"): (WatchdogTimeout, False),
    ("notify", "done"): (None, True),
    ("notify", "failed"): (JobError, True),
    ("notify", "lost"): (JobNotFound, True),
    ("notify", "timeout"): (WatchdogTimeout, False),
    ("mux", "done"): (None, True),
    ("mux", "failed"): (JobError, True),
    ("mux", "lost"): (JobNotFound, True),
    ("mux", "timeout"): (WatchdogTimeout, False),
    ("faithful", "done"): (None, True),
    ("faithful", "failed"): (JobError, True),
    ("faithful", "lost"): (JobNotFound, False),
    ("faithful", "timeout"): (WatchdogTimeout, False),
}


@pytest.mark.parametrize("rung,outcome", sorted(CELLS))
def test_completion_ladder(rung, outcome):
    expected_error, reaches_tail = CELLS[(rung, outcome)]
    onserve, agent, report, output, error, detected, elapsed = \
        run_cell(rung, outcome)

    if expected_error is None:
        assert error is None and output == OUTPUT
    else:
        assert type(error) is expected_error
    if outcome == "timeout":
        # The deadline covers every rung, and the abandoned waiter left
        # nothing parked at its source.
        assert elapsed >= 60.0
        if rung == "notify":
            assert onserve.notify_queue._waiters == {}
        if rung == "mux":
            assert onserve.poll_mux(SITE).pending == 0

    if not reaches_tail:
        assert detected is None and report.polls == 0
        assert "detected" not in agent.log
        return
    fields = detected.fields
    assert fields["job_id"] == JOB_ID and fields["site"] == SITE
    assert fields["batched"] == (rung == "mux")
    assert fields["pushed"] == (rung == "notify")
    assert report.polls == fields["polls"]
    if rung == "notify":
        assert fields["polls"] == 0
        assert not {"jobStatus", "outputReady", "pollOutputs"} & set(agent.log)
    elif rung in ("status", "faithful"):
        # Polls start every 9 s (+ the exchanges): the fourth is past 20 s.
        first_poll = "jobStatus" if rung == "status" else "outputReady"
        assert fields["polls"] == agent.log.count(first_poll) == 4
    else:
        assert fields["polls"] >= 1

    # After detection: exactly one final fetch — unless the detector
    # already knows the job did not end "done" (status/notify rungs).
    after = agent.log[agent.log.index("detected") + 1:]
    knows_state = rung in ("status", "notify")
    if outcome == "done" or (outcome == "failed" and not knows_state):
        assert after == ["fetchOutput"]
    else:
        assert after == []
