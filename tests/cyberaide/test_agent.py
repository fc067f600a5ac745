"""Unit tests for the Cyberaide agent, jobspec and mediator."""

import pytest

from repro.cyberaide import AgentConfig, CyberaideAgent, CyberaideJobSpec
from repro.cyberaide.mediator import Mediator, TaskState
from repro.errors import AuthenticationFailed, RslError, SoapFault
from repro.grid import build_testbed
from repro.simkernel import Simulator
from repro.telemetry.events import bus
from repro.units import KB, Mbps
from repro.workloads import make_payload
from repro.ws import SoapFabric, SoapServer, WsClient, generate_stub


def agent_env(status_supported=False, session_reuse=False):
    tb = build_testbed(n_sites=2, nodes_per_site=2, cores_per_node=4,
                       appliance_uplink=Mbps(10))
    tb.new_grid_identity("onserve", "pw")
    fabric = SoapFabric()
    server = SoapServer(tb.appliance_host, fabric)
    agent = CyberaideAgent(tb.appliance_host, tb,
                           AgentConfig(status_supported=status_supported,
                                       session_reuse=session_reuse))
    server.deploy(agent.service_description(), agent.handler)
    stub = generate_stub(server.wsdl(agent.SERVICE_NAME))(
        WsClient(tb.appliance_host, fabric))
    return tb, agent, stub


# ---------------------------------------------------------------- jobspec

def test_jobspec_paths_and_rsl():
    spec = CyberaideJobSpec("hello.sh", arguments=["a", 3], count=2,
                            max_wall_time=120)
    assert spec.staged_path() == "/scratch/cyberaide/hello.sh"
    assert spec.stdout_path("t1") == "/scratch/cyberaide/hello.sh.t1.out"
    rsl = spec.to_rsl("t1")
    assert 'executable="/scratch/cyberaide/hello.sh"' in rsl
    assert '"a" "3"' in rsl
    assert "(count=2)" in rsl


def test_jobspec_validation():
    with pytest.raises(RslError):
        CyberaideJobSpec("")
    with pytest.raises(RslError):
        CyberaideJobSpec("has/slash")


# ---------------------------------------------------------------- agent

def test_authenticate_creates_session():
    tb, agent, stub = agent_env()

    def flow():
        return (yield stub.authenticate(username="onserve", passphrase="pw"))

    session = tb.sim.run(until=tb.sim.process(flow()))
    assert session.startswith("sess-")
    assert session in agent._sessions


def test_authenticate_bad_credentials_fault():
    tb, agent, stub = agent_env()

    def flow():
        yield stub.authenticate(username="onserve", passphrase="nope")

    with pytest.raises(SoapFault, match="passphrase"):
        tb.sim.run(until=tb.sim.process(flow()))


def test_list_sites_best_first():
    tb, agent, stub = agent_env()

    def flow():
        yield stub.authenticate(username="onserve", passphrase="pw")
        return (yield stub.listSites())

    sites = tb.sim.run(until=tb.sim.process(flow()))
    assert set(sites.split(",")) == {"ncsa", "sdsc"}


def test_full_job_cycle_through_agent():
    tb, agent, stub = agent_env()
    payload = make_payload("echo", size=int(KB(2)))
    spec = CyberaideJobSpec("echo.sh", arguments=["hi"])

    def flow():
        session = yield stub.authenticate(username="onserve", passphrase="pw")
        n = yield stub.uploadExecutable(session=session, site="ncsa",
                                        path=spec.staged_path(), data=payload)
        assert n == len(payload)
        job_id = yield stub.submitJob(session=session, site="ncsa",
                                      rsl=spec.to_rsl("t"))
        # Tentative polling until the stdout file appears.
        while True:
            ready = yield stub.outputReady(session=session, site="ncsa",
                                           path=spec.stdout_path("t"))
            if ready:
                break
            yield tb.sim.timeout(3.0)
        output = yield stub.fetchOutput(session=session, site="ncsa",
                                        jobId=job_id)
        return output

    output = tb.sim.run(until=tb.sim.process(flow()))
    assert output == b"hi\n"
    assert agent.uploads == 1
    assert agent.submissions == 1
    assert agent.output_polls >= 1


def test_job_status_blocked_by_default():
    tb, agent, stub = agent_env(status_supported=False)

    def flow():
        session = yield stub.authenticate(username="onserve", passphrase="pw")
        yield stub.jobStatus(session=session, site="ncsa", jobId="x")

    with pytest.raises(SoapFault, match="not retrievable"):
        tb.sim.run(until=tb.sim.process(flow()))


def test_job_status_works_in_ablation():
    tb, agent, stub = agent_env(status_supported=True)
    payload = make_payload("fixed", runtime="5")
    spec = CyberaideJobSpec("f.sh")

    def flow():
        session = yield stub.authenticate(username="onserve", passphrase="pw")
        yield stub.uploadExecutable(session=session, site="ncsa",
                                    path=spec.staged_path(), data=payload)
        job_id = yield stub.submitJob(session=session, site="ncsa",
                                      rsl=spec.to_rsl("t"))
        yield tb.sim.timeout(30.0)
        return (yield stub.jobStatus(session=session, site="ncsa",
                                     jobId=job_id))

    assert tb.sim.run(until=tb.sim.process(flow())) == "done"


def test_calls_require_session():
    tb, agent, stub = agent_env()

    def flow():
        yield stub.submitJob(session="sess-bogus", site="ncsa", rsl="&")

    with pytest.raises(SoapFault, match="no such agent session"):
        tb.sim.run(until=tb.sim.process(flow()))


def test_session_expires():
    tb, agent, stub = agent_env()
    agent.config.default_proxy_lifetime = 100.0

    def flow():
        session = yield stub.authenticate(username="onserve", passphrase="pw")
        yield tb.sim.timeout(7200.0)
        yield stub.listSites()  # fine: needs no session
        yield stub.fetchOutput(session=session, site="ncsa", jobId="x")

    with pytest.raises(SoapFault, match="expired"):
        tb.sim.run(until=tb.sim.process(flow()))


def test_unknown_site_fault():
    tb, agent, stub = agent_env()

    def flow():
        session = yield stub.authenticate(username="onserve", passphrase="pw")
        yield stub.uploadExecutable(session=session, site="mars",
                                    path="/x", data=b"d")

    with pytest.raises(SoapFault, match="GridFTP"):
        tb.sim.run(until=tb.sim.process(flow()))


# ------------------------------------------------ replicateExecutable

def _replicate_flow(tb, stub, stage=True, **call):
    """Stage a file on ncsa (optionally), then direct one site-to-site
    copy with *call* overriding the default arguments; the process's
    value is (bytes copied, bytes the copy put on the appliance uplink)."""
    payload = make_payload("echo", size=int(KB(64)))
    [uplink] = tb.network.route("appliance", "wan-core")

    def flow():
        session = yield stub.authenticate(username="onserve", passphrase="pw")
        if stage:
            yield stub.uploadExecutable(session=session, site="ncsa",
                                        path="/x/echo.sh", data=payload)
        before = uplink.server.work_integral()
        args = dict(session=session, fromSite="ncsa", toSite="sdsc",
                    path="/x/echo.sh")
        args.update(call)
        n = yield stub.replicateExecutable(**args)
        return n, uplink.server.work_integral() - before

    return payload, tb.sim.process(flow())


def test_replicate_copies_site_to_site_off_the_uplink():
    tb, agent, stub = agent_env()
    payload, proc = _replicate_flow(tb, stub)
    copied, over_uplink = tb.sim.run(until=proc)
    assert copied == len(payload)
    # Two control channels crossed the uplink; the bytes did not.
    assert over_uplink < len(payload) / 4
    assert tb.site("sdsc").read_file("/x/echo.sh") == payload
    assert (agent.uploads, agent.replications) == (1, 1)
    [event] = bus(tb.sim).events(kind="agent.replicate")
    assert (event.fields["src"], event.fields["dest"],
            event.fields["nbytes"]) == ("ncsa", "sdsc", len(payload))


def test_replicate_rides_the_session_pool_only_under_session_reuse():
    from repro.grid.gridftp import GridFtpSession
    from repro.security.gsi import GsiAcceptor
    control = {}
    for reuse in (False, True):
        tb, agent, stub = agent_env(session_reuse=reuse)
        ends = [tb.ftp("ncsa"), tb.ftp("sdsc")]

        def flow():
            session = yield stub.authenticate(username="onserve",
                                              passphrase="pw")
            args = dict(session=session, site="ncsa", path="/x/echo.sh",
                        data=make_payload("echo", size=int(KB(8))))
            yield stub.uploadExecutable(**args)
            yield stub.uploadExecutable(**dict(args, site="sdsc",
                                               path="/x/other"))
            before = [end.control_bytes for end in ends]
            yield stub.replicateExecutable(
                session=session, fromSite="ncsa", toSite="sdsc",
                path="/x/echo.sh")
            return ([end.control_bytes - b for end, b in zip(ends, before)],
                    agent._sessions[session].chain)

        control[reuse], chain = tb.sim.run(until=tb.sim.process(flow()))
        assert tb.site("sdsc").has_file("/x/echo.sh")
    # Per-operation mode is what it was: a GSI handshake to each end.
    per_op = GsiAcceptor.handshake_bytes(chain) + ends[0].CONTROL_BYTES
    assert control[False] == [per_op, per_op]
    assert control[True] == [GridFtpSession.SESSION_OP_BYTES] * 2


def test_upload_range_lands_a_view_and_shows_the_file_when_whole():
    tb, agent, stub = agent_env()
    payload = make_payload("echo", size=int(KB(64)))
    view, half = memoryview(payload), len(payload) // 2
    [uplink] = tb.network.route("appliance", "wan-core")

    def flow():
        session = yield stub.authenticate(username="onserve", passphrase="pw")
        args = dict(session=session, site="ncsa", path="/x/echo.sh",
                    total=len(payload), transfer="digest-1")
        before = uplink.server.work_integral()
        n = yield stub.uploadRange(data=view[:half], offset=0, **args)
        sent = uplink.server.work_integral() - before
        seen = tb.site("ncsa").has_file("/x/echo.sh")
        yield stub.uploadRange(data=view[half:], offset=half, **args)
        return n, sent, seen

    n, sent, seen = tb.sim.run(until=tb.sim.process(flow()))
    assert n == half and not seen
    assert half < sent < half + int(KB(16))  # the range, not the payload
    assert tb.site("ncsa").read_file("/x/echo.sh") is payload
    assert agent.uploads == 2


@pytest.mark.parametrize("call, root_cause", [
    ({"fromSite": "mars"}, "GridError"),
    ({"toSite": "mars"}, "GridError"),
    ({"session": "sess-bogus"}, "AuthenticationFailed"),
])
def test_replicate_rejects_unknown_site_and_dead_session(call, root_cause):
    tb, agent, stub = agent_env()
    _payload, proc = _replicate_flow(tb, stub, **call)
    with pytest.raises(SoapFault) as excinfo:
        tb.sim.run(until=proc)
    assert excinfo.value.root_cause == root_cause
    assert agent.replications == 0
    assert not tb.site("sdsc").has_file("/x/echo.sh")


def test_replicate_expired_session_is_an_authentication_failure():
    tb, agent, stub = agent_env()
    agent.config.default_proxy_lifetime = 100.0

    def flow():
        session = yield stub.authenticate(username="onserve", passphrase="pw")
        yield tb.sim.timeout(7200.0)
        yield stub.replicateExecutable(session=session, fromSite="ncsa",
                                       toSite="sdsc", path="/x/echo.sh")

    with pytest.raises(SoapFault, match="expired") as excinfo:
        tb.sim.run(until=tb.sim.process(flow()))
    assert excinfo.value.root_cause == "AuthenticationFailed"


def test_replicate_missing_source_file_is_a_transfer_error():
    tb, agent, stub = agent_env()
    _payload, proc = _replicate_flow(tb, stub, stage=False)
    with pytest.raises(SoapFault, match="no such file") as excinfo:
        tb.sim.run(until=proc)
    assert excinfo.value.root_cause == "TransferError"
    assert excinfo.value.retryable
    assert agent.replications == 0


# ---------------------------------------------------------------- mediator

def test_mediator_bounds_concurrency():
    sim = Simulator()
    med = Mediator(sim, max_concurrent=2)
    active = []
    peak = []

    def work():
        active.append(1)
        peak.append(len(active))
        yield sim.timeout(10)
        active.pop()
        return "ok"

    tasks = [med.submit(work, label=f"t{i}") for i in range(5)]
    sim.run()
    assert max(peak) <= 2
    assert all(t.state is TaskState.DONE for t in tasks)
    assert med.stats()["done"] == 5
    assert med.stats()["mean_queue_wait"] > 0


def test_mediator_captures_failures():
    sim = Simulator()
    med = Mediator(sim, max_concurrent=1)

    def bad():
        yield sim.timeout(1)
        from repro.errors import JobError
        raise JobError("exploded")

    task = med.submit(bad, label="boom")
    sim.run()
    assert task.state is TaskState.FAILED
    assert "exploded" in str(task.error)
    assert med.stats()["failed"] == 1


def test_mediator_wait_all():
    sim = Simulator()
    med = Mediator(sim, max_concurrent=2)

    def work(d):
        yield sim.timeout(d)

    for d in (5, 10, 15):
        med.submit(lambda d=d: work(d))
    done = med.wait_all()
    sim.run(until=done)
    assert sim.now == pytest.approx(20.0)  # 5,10 parallel; 15 queued after 5
