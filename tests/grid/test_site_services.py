"""Unit tests for GridSite, GridFTP, GRAM, MDS and the testbed factory."""

import pytest

from repro.errors import (
    AuthenticationFailed, GridError, JobNotFound, TransferError,
)
from repro.grid import JobDescription, JobState, build_testbed
from repro.grid.rsl import generate_rsl
from repro.simkernel import Simulator
from repro.units import KB, KBps, Mbps
from repro.workloads import make_payload


def quick_testbed(**kw):
    kw.setdefault("n_sites", 2)
    kw.setdefault("nodes_per_site", 2)
    kw.setdefault("cores_per_node", 4)
    kw.setdefault("appliance_uplink", Mbps(10))
    tb = build_testbed(**kw)
    return tb


def logon(tb, username="ada", passphrase="pw"):
    """Enrol + logon; returns (chain, client_host)."""
    tb.new_grid_identity(username, passphrase)
    client = tb.appliance_host

    def flow():
        key, proxy, ee = yield tb.myproxy.logon(client, username, passphrase,
                                                lifetime=3600.0)
        return [proxy, ee]

    chain = tb.sim.run(until=tb.sim.process(flow()))
    return chain, client


# ---------------------------------------------------------------- gridftp

def test_gridftp_put_get_roundtrip():
    tb = quick_testbed()
    chain, client = logon(tb)
    payload = make_payload("echo", size=int(KB(16)))
    ftp = tb.ftp("ncsa")

    def flow():
        yield from ftp.put(client, chain, "/scratch/echo.bin", payload)
        data = yield from ftp.get(client, chain, "/scratch/echo.bin")
        return data

    data = tb.sim.run(until=tb.sim.process(flow()))
    assert data == payload
    assert ftp.transfers_in == 1
    assert ftp.transfers_out == 1
    assert tb.site("ncsa").head.disk.bytes_written() >= len(payload)


def test_gridftp_requires_valid_chain():
    tb = quick_testbed()
    chain, client = logon(tb)
    stranger_tb = quick_testbed()  # different CA entirely
    other_chain, _ = logon(stranger_tb, "eve", "x")

    def flow():
        yield from tb.ftp("ncsa").put(client, other_chain, "/f", b"data")

    with pytest.raises(Exception):  # CertificateInvalid (untrusted CA)
        tb.sim.run(until=tb.sim.process(flow()))


def test_gridftp_get_missing_file():
    tb = quick_testbed()
    chain, client = logon(tb)

    def flow():
        yield from tb.ftp("ncsa").get(client, chain, "/nope")

    with pytest.raises(TransferError):
        tb.sim.run(until=tb.sim.process(flow()))


def test_gridftp_transfer_rate_limited_by_uplink():
    tb = quick_testbed(appliance_uplink=KBps(100))
    chain, client = logon(tb)
    payload = make_payload("echo", size=int(KB(500)))

    def flow():
        t0 = tb.sim.now
        yield from tb.ftp("ncsa").put(client, chain, "/big", payload)
        return tb.sim.now - t0

    elapsed = tb.sim.run(until=tb.sim.process(flow()))
    assert elapsed >= 5.0  # ~500 KB at 100 KB/s, plus handshake


# ---------------------------------------------------------------- gram

def submit_job(tb, site="ncsa", runtime=10.0, walltime=3600,
               path="/scratch/exe"):
    chain, client = logon(tb)
    payload = make_payload("fixed", size=1024, runtime=str(runtime),
                           output_bytes="2048")
    gram = tb.gram(site)
    ftp = tb.ftp(site)
    rsl = generate_rsl(JobDescription(executable=path,
                                      max_wall_time=walltime,
                                      stdout="exe.out"))

    def flow():
        yield from ftp.put(client, chain, path, payload)
        job_id = yield from gram.submit(client, chain, rsl)
        return job_id

    job_id = tb.sim.run(until=tb.sim.process(flow()))
    return tb, gram, client, chain, job_id


def test_gram_submit_and_complete():
    tb, gram, client, chain, job_id = submit_job(quick_testbed())
    job = tb.sim.run(until=gram.completion_event(job_id))
    assert job.state is JobState.DONE
    assert job.output.startswith(b"fixed-profile output")
    assert gram.submissions == 1
    site = tb.site("ncsa")
    assert site.read_file("exe.out") == job.output


def test_a_terminal_job_is_one_retired_record():
    """One completion map — the site's job records — and a terminal
    record keeps what a lookup reads, not its parsed RSL."""
    tb, gram, client, chain, job_id = submit_job(quick_testbed())
    site = tb.site("ncsa")
    done = gram.completion_event(job_id)
    assert site.get_job(job_id).completion is done
    job = tb.sim.run(until=done)
    assert not hasattr(gram, "_completions")
    assert site.get_job(job_id) is job and job.state is JobState.DONE
    assert job.description is None and job.history is None
    assert job.completion is None and job.finished_at is not None
    assert job.output.startswith(b"fixed-profile output")
    # Status, output and completion still answer from the record.
    full = tb.sim.run(until=tb.sim.process(gram.fetch_output(client, job_id)))
    assert full == job.output
    assert tb.sim.run(until=tb.sim.process(
        gram.status(client, job_id))) is JobState.DONE
    assert tb.sim.run(until=gram.completion_event(job_id)) is job


def test_gram_status_progression():
    tb, gram, client, chain, job_id = submit_job(quick_testbed(),
                                                 runtime=100.0)

    def flow():
        first = yield from gram.status(client, job_id)
        yield tb.sim.timeout(200.0)
        second = yield from gram.status(client, job_id)
        return first, second

    first, second = tb.sim.run(until=tb.sim.process(flow()))
    assert first in (JobState.PENDING, JobState.ACTIVE)
    assert second is JobState.DONE


def test_gram_cancel():
    tb, gram, client, chain, job_id = submit_job(quick_testbed(),
                                                 runtime=1000.0)

    def flow():
        yield tb.sim.timeout(5.0)
        yield from gram.cancel(client, job_id)

    tb.sim.run(until=tb.sim.process(flow()))
    job = tb.site("ncsa").get_job(job_id)
    assert job.state is JobState.CANCELED


def test_gram_fetch_output_partial_then_full():
    tb, gram, client, chain, job_id = submit_job(quick_testbed(),
                                                 runtime=100.0)

    def flow():
        yield tb.sim.timeout(60.0)  # job is mid-run
        partial = yield from gram.fetch_output(client, job_id)
        yield gram.completion_event(job_id)
        full = yield from gram.fetch_output(client, job_id)
        return partial, full

    partial, full = tb.sim.run(until=tb.sim.process(flow()))
    assert 0 < len(partial) < 2048          # placeholder prefix
    assert set(partial) == {0}
    assert full.startswith(b"fixed-profile output")


def test_gram_submit_rejects_bad_rsl():
    tb = quick_testbed()
    chain, client = logon(tb)

    def flow():
        yield from tb.gram("ncsa").submit(client, chain, "not rsl at all")

    with pytest.raises(Exception):
        tb.sim.run(until=tb.sim.process(flow()))
    assert tb.gram("ncsa").refusals == 1


def test_gram_unstaged_executable_fails_job():
    tb = quick_testbed()
    chain, client = logon(tb)
    rsl = generate_rsl(JobDescription(executable="/missing"))

    def flow():
        job_id = yield from tb.gram("ncsa").submit(client, chain, rsl)
        job = yield tb.gram("ncsa").completion_event(job_id)
        return job

    job = tb.sim.run(until=tb.sim.process(flow()))
    assert job.state is JobState.FAILED
    assert "not staged" in job.failure_reason


def test_gram_garbage_payload_fails_job():
    tb = quick_testbed()
    chain, client = logon(tb)
    rsl = generate_rsl(JobDescription(executable="/junk"))

    def flow():
        yield from tb.ftp("ncsa").put(client, chain, "/junk",
                                      b"\x7fELF not ours")
        job_id = yield from tb.gram("ncsa").submit(client, chain, rsl)
        return (yield tb.gram("ncsa").completion_event(job_id))

    job = tb.sim.run(until=tb.sim.process(flow()))
    assert job.state is JobState.FAILED
    assert "magic" in job.failure_reason


# ---------------------------------------------------------------- mds / testbed

def test_mds_query_and_ranking():
    tb = quick_testbed()
    sites = tb.mds.query(min_free_cores=1)
    assert len(sites) == 2
    best = tb.mds.best_site()
    assert best.pool.free_cores == 8
    with pytest.raises(GridError):
        tb.mds.best_site(min_free_cores=10**6)
    snapshot = tb.mds.snapshot()
    assert {row["name"] for row in snapshot} == {"ncsa", "sdsc"}


def test_mds_reflects_load():
    tb, gram, client, chain, job_id = submit_job(quick_testbed(),
                                                 runtime=500.0)

    def flow():
        yield tb.sim.timeout(10.0)
        return tb.mds.best_site().name

    best = tb.sim.run(until=tb.sim.process(flow()))
    assert best == "sdsc"  # ncsa has a running job now


def test_testbed_shape():
    tb = build_testbed(n_sites=11, nodes_per_site=2, cores_per_node=2)
    assert len(tb.sites) == 11
    assert tb.appliance_host.name == "appliance"
    assert len(tb.user_hosts) == 1
    with pytest.raises(ValueError):
        build_testbed(n_sites=0)
    with pytest.raises(ValueError):
        build_testbed(n_sites=12)


def test_myproxy_logon_rejects_wrong_passphrase():
    tb = quick_testbed()
    tb.new_grid_identity("ada", "right")

    def flow():
        yield tb.myproxy.logon(tb.appliance_host, "ada", "wrong", 100.0)

    with pytest.raises(AuthenticationFailed):
        tb.sim.run(until=tb.sim.process(flow()))


def test_job_runtime_draw_leaves_no_stream_behind(monkeypatch):
    """One grid job draws from a generator seeded by its id — the draws
    ``stream("job:<id>")`` would give — and none is kept per job."""
    from repro.simkernel.rng import RngRegistry
    from repro.workloads import executables

    class Jittered(executables.ExecutableProfile):
        name = "jittered"

        def runtime(self, arguments, count, options, rng):
            return rng.uniform(1.0, 9.0)

        def compute_output(self, arguments, count, options):
            return b"done\n"

    monkeypatch.setitem(executables.PROFILE_REGISTRY, "jittered", Jittered())
    tb = quick_testbed(n_sites=1)
    site = tb.sites[0]
    site.store_file("/x", make_payload("jittered"))
    for _ in range(3):
        job = site.create_job(JobDescription(executable="/x"), "/CN=u")
        tb.sim.run(until=site.run_job(job))
        assert job.state is JobState.DONE
        want = RngRegistry(tb.sim.rng.master_seed).stream(
            f"job:{job.job_id}").uniform(1.0, 9.0)
        assert job.finished_at - job.started_at == pytest.approx(want)
        assert f"job:{job.job_id}" not in tb.sim.rng


def _count_seedings(monkeypatch):
    import random
    seeded = []
    real = random.Random.seed

    def counting(self, *args, **kwargs):
        seeded.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(random.Random, "seed", counting)
    return seeded


def test_a_job_whose_profile_never_draws_seeds_no_generator(monkeypatch):
    tb = quick_testbed(n_sites=1)
    site = tb.sites[0]
    site.store_file("/echo", make_payload("echo"))
    job = site.create_job(JobDescription(executable="/echo",
                                         arguments=["hi"]), "/CN=u")
    seeded = _count_seedings(monkeypatch)
    tb.sim.run(until=site.run_job(job))
    assert job.state is JobState.DONE and job.output == b"hi\n"
    assert seeded == []


def test_a_drawing_profile_gets_exactly_the_jobs_one_shot(monkeypatch):
    from repro.workloads import executables

    class Drawing(executables.ExecutableProfile):
        name = "drawing"
        draws = []

        def runtime(self, arguments, count, options, rng):
            got = [rng.random(), rng.randint(0, 999), rng.uniform(1.0, 9.0)]
            self.draws.append(got)
            return got[2]

        def compute_output(self, arguments, count, options):
            return b"done\n"

    monkeypatch.setitem(executables.PROFILE_REGISTRY, "drawing", Drawing())
    tb = quick_testbed(n_sites=1)
    site = tb.sites[0]
    site.store_file("/d", make_payload("drawing"))
    for _ in range(2):
        job = site.create_job(JobDescription(executable="/d"), "/CN=u")
        tb.sim.run(until=site.run_job(job))
        once = tb.sim.rng.one_shot(f"job:{job.job_id}")
        assert Drawing.draws[-1] == [once.random(), once.randint(0, 999),
                                     once.uniform(1.0, 9.0)]
        assert job.finished_at - job.started_at == pytest.approx(
            Drawing.draws[-1][2])
    assert Drawing.draws[0] != Drawing.draws[1]
