"""Tests for queue policies, node failure injection, third-party FTP,
and certificate revocation."""

import pytest

from repro.errors import CertificateInvalid, GridError, JobError
from repro.grid import BatchScheduler, GridJob, JobDescription, JobState
from repro.grid import build_testbed
from repro.grid.node import ComputeNode, NodePool
from repro.grid.rsl import generate_rsl
from repro.grid.site import QueuePolicy
from repro.simkernel import Simulator
from repro.units import KB, Mbps
from repro.workloads import make_payload


def quick_testbed(**kw):
    kw.setdefault("n_sites", 2)
    kw.setdefault("nodes_per_site", 2)
    kw.setdefault("cores_per_node", 4)
    kw.setdefault("appliance_uplink", Mbps(10))
    return build_testbed(**kw)


def logon(tb, username="ada"):
    tb.new_grid_identity(username, "pw")
    client = tb.appliance_host

    def flow():
        key, proxy, ee = yield tb.myproxy.logon(client, username, "pw",
                                                lifetime=3600.0)
        return [proxy, ee]

    return tb.sim.run(until=tb.sim.process(flow())), client


# ---------------------------------------------------------------- queue policy

def test_queue_walltime_cap_enforced():
    tb = quick_testbed()
    site = tb.site("ncsa")
    with pytest.raises(GridError, match="caps walltime"):
        site.create_job(JobDescription(executable="/x", queue="debug",
                                       max_wall_time=7200), owner="/CN=a")
    # Inside the cap it goes through.
    job = site.create_job(JobDescription(executable="/x", queue="debug",
                                         max_wall_time=600), owner="/CN=a")
    assert job.description.queue == "debug"


def test_debug_queue_jumps_ahead():
    """Debug-queue jobs are served before queued normal jobs."""
    sim = Simulator()
    pool = NodePool([ComputeNode("n", 1)])
    sched = BatchScheduler(sim, pool)

    def pend(jid, walltime=100):
        j = GridJob(jid, JobDescription(executable="/x",
                                        max_wall_time=walltime),
                    "/CN=t", sim.now)
        j.transition(JobState.STAGE_IN, sim.now)
        j.transition(JobState.PENDING, sim.now)
        return j

    sched.submit(pend("running"), runtime=50.0, priority=10)
    sched.submit(pend("normal"), runtime=10.0, priority=10)
    debug = pend("debug")
    done = sched.submit(debug, runtime=10.0, priority=0)
    sim.run(until=done)
    # Debug started right after the running job, before "normal".
    assert debug.started_at == pytest.approx(50.0)


def test_custom_queue_policy():
    tb = quick_testbed()
    site = tb.site("ncsa")
    site.queues["gpu"] = QueuePolicy("gpu", max_walltime=600, priority=5)
    job = site.create_job(JobDescription(executable="/x", queue="gpu",
                                         max_wall_time=300), owner="/CN=a")
    assert job.description.queue == "gpu"
    assert "gpu" in site.info()["queues"]


# ---------------------------------------------------------------- node failure

def test_node_failure_kills_running_jobs():
    tb = quick_testbed()
    chain, client = logon(tb)
    site = tb.site("ncsa")
    payload = make_payload("fixed", size=1024, runtime="500")
    gram, ftp = tb.gram("ncsa"), tb.ftp("ncsa")
    rsl = generate_rsl(JobDescription(executable="/exe", count=8,
                                      max_wall_time=3600))

    def flow():
        yield from ftp.put(client, chain, "/exe", payload)
        job_id = yield from gram.submit(client, chain, rsl)
        yield tb.sim.timeout(10.0)
        killed = site.fail_node(site.pool.nodes[0].name)
        job = yield gram.completion_event(job_id)
        return killed, job

    killed, job = tb.sim.run(until=tb.sim.process(flow()))
    assert job.job_id in killed
    assert job.state is JobState.FAILED
    assert "failed" in job.failure_reason
    # The pool shrank but stayed consistent.
    assert site.pool.total_cores == 4
    assert site.pool.free_cores == 4


def test_node_failure_spares_other_nodes_jobs():
    sim = Simulator()
    pool = NodePool([ComputeNode("a", 2), ComputeNode("b", 2)])
    sched = BatchScheduler(sim, pool)

    def pend(jid, cores):
        j = GridJob(jid, JobDescription(executable="/x", count=cores,
                                        max_wall_time=100),
                    "/CN=t", sim.now)
        j.transition(JobState.STAGE_IN, sim.now)
        j.transition(JobState.PENDING, sim.now)
        return j

    j1 = pend("on-a", 2)   # fills node a
    j2 = pend("on-b", 2)   # fills node b
    d1 = sched.submit(j1, runtime=50.0)
    d2 = sched.submit(j2, runtime=50.0)

    def failer():
        yield sim.timeout(10.0)
        killed = sched.fail_node("a")
        assert killed == ["on-a"]

    sim.process(failer())
    sim.run()
    assert j1.state is JobState.FAILED
    assert j2.state is JobState.DONE


def test_node_failure_fails_now_unsatisfiable_queue():
    sim = Simulator()
    pool = NodePool([ComputeNode("a", 4), ComputeNode("b", 4)])
    sched = BatchScheduler(sim, pool)

    def pend(jid, cores):
        j = GridJob(jid, JobDescription(executable="/x", count=cores,
                                        max_wall_time=100), "/CN=t", sim.now)
        j.transition(JobState.STAGE_IN, sim.now)
        j.transition(JobState.PENDING, sim.now)
        return j

    blocker = pend("blocker", 8)
    sched.submit(blocker, runtime=50.0)
    wide = pend("wide", 8)   # queued behind blocker
    done = sched.submit(wide, runtime=10.0)

    def failer():
        yield sim.timeout(5.0)
        sched.fail_node("a")  # total capacity falls to 4 < 8

    sim.process(failer())
    job = sim.run(until=done)
    assert job.state is JobState.FAILED
    assert "capacity lost" in job.failure_reason


def test_remove_node_validation():
    pool = NodePool([ComputeNode("only", 2)])
    with pytest.raises(GridError, match="last node"):
        pool.remove_node(pool.nodes[0])
    pool2 = NodePool([ComputeNode("a", 2), ComputeNode("b", 2)])
    pool2.allocate(3)
    with pytest.raises(GridError, match="allocations"):
        pool2.remove_node(pool2.nodes[0])
    with pytest.raises(GridError, match="no node named"):
        pool2.find_node("ghost")


# ---------------------------------------------------------------- third-party ftp

def test_third_party_transfer_moves_site_to_site():
    tb = quick_testbed()
    chain, client = logon(tb)
    src, dst = tb.ftp("ncsa"), tb.ftp("sdsc")
    payload = make_payload("echo", size=int(KB(64)))

    def flow():
        yield from src.put(client, chain, "/data", payload)
        out_before = client.net_bytes_out()
        n = yield from src.third_party_transfer(client, chain, "/data", dst,
                                                "/staged")
        return n, client.net_bytes_out() - out_before

    n, client_bytes = tb.sim.run(until=tb.sim.process(flow()))
    assert n == len(payload)
    assert dst.site.read_file("/staged") == payload
    # The data never flows through the client: only control traffic.
    assert client_bytes < KB(32)


def test_third_party_missing_source():
    tb = quick_testbed()
    chain, client = logon(tb)

    def flow():
        yield from tb.ftp("ncsa").third_party_transfer(
            client, chain, "/ghost", tb.ftp("sdsc"), "/x")

    from repro.errors import TransferError
    with pytest.raises(TransferError):
        tb.sim.run(until=tb.sim.process(flow()))


# ---------------------------------------------------------------- revocation

def test_revoked_certificate_rejected_after_crl_refresh():
    tb = quick_testbed()
    chain, client = logon(tb)
    site = tb.site("ncsa")

    def use():
        yield from tb.ftp("ncsa").put(client, chain, "/f", b"x" * 100)

    tb.sim.run(until=tb.sim.process(use()))  # works before revocation

    ee = chain[-1]
    tb.ca.revoke(ee)
    assert tb.ca.is_revoked(ee)
    # Until the site refreshes its CRL, the credential still works.
    tb.sim.run(until=tb.sim.process(use()))
    site.acceptor.update_crl(tb.ca)
    with pytest.raises(CertificateInvalid, match="revoked"):
        tb.sim.run(until=tb.sim.process(use()))


def test_crl_only_affects_revoked_serials():
    tb = quick_testbed()
    chain_a, client = logon(tb, "ada")
    chain_b, _ = logon(tb, "bob")
    tb.ca.revoke(chain_a[-1])
    site = tb.site("ncsa")
    site.acceptor.update_crl(tb.ca)

    def use(chain, path):
        yield from tb.ftp("ncsa").put(client, chain, path, b"x")

    with pytest.raises(CertificateInvalid):
        tb.sim.run(until=tb.sim.process(use(chain_a, "/a")))
    tb.sim.run(until=tb.sim.process(use(chain_b, "/b")))  # bob unaffected
