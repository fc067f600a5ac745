"""Tests for the persisted invocation history and usage reporting."""

import pytest

from repro.core import OnServeConfig, deploy_onserve, discover_and_invoke
from repro.errors import SoapFault
from repro.grid import build_testbed
from repro.units import KB, Mbps
from repro.workloads import make_payload


@pytest.fixture()
def env():
    tb = build_testbed(n_sites=2, nodes_per_site=2, cores_per_node=4,
                       appliance_uplink=Mbps(10))
    stack = tb.sim.run(until=deploy_onserve(tb))
    for name, profile in (("alpha.sh", "echo"), ("beta.sh", "echo")):
        payload = make_payload(profile, size=int(KB(2)))
        tb.sim.run(until=stack.portal.upload_and_generate(
            tb.user_hosts[0], name, payload, params_spec="x:string"))
    return tb, stack


def invoke(tb, stack, pattern, **params):
    return tb.sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], pattern, **params))


def test_history_rows_accumulate(env):
    tb, stack = env
    invoke(tb, stack, "Alpha%", x="1")
    invoke(tb, stack, "Alpha%", x="2")
    invoke(tb, stack, "Beta%", x="3")
    rows = stack.dbmanager.db.select("invocations")
    assert len(rows) == 3
    assert {r["service"] for r in rows} == {"AlphaService", "BetaService"}
    assert all(r["ok"] == 1 for r in rows)
    assert all(r["total"] > 0 for r in rows)
    assert stack.onserve.get_service("AlphaService").invocations == 2


def test_history_captures_failures(env, monkeypatch):
    from repro.core.grid_service import GridServiceRuntime
    tb, stack = env
    payload = make_payload("fixed", size=int(KB(1)), runtime="500")
    tb.sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "doomed.sh", payload, params_spec=""))
    monkeypatch.setattr(GridServiceRuntime, "JOB_WALLTIME", 30)
    stack.onserve.config.watchdog_timeout = 200.0
    with pytest.raises(SoapFault):
        invoke(tb, stack, "Doomed%")
    row = stack.dbmanager.db.find_eq("invocations", "service",
                                     "DoomedService")[0]
    assert row["ok"] == 0
    assert row["error"]


def test_usage_report_aggregates(env):
    tb, stack = env
    invoke(tb, stack, "Alpha%", x="1")
    invoke(tb, stack, "Alpha%", x="2")
    report = stack.onserve.usage_report()
    by_service = {r["service"]: r for r in report}
    assert by_service["AlphaService"]["count(*)"] == 2
    assert by_service["AlphaService"]["sum(ok)"] == 2
    assert by_service["AlphaService"]["avg(total)"] > 0


def test_usage_report_over_soap(env):
    tb, stack = env
    invoke(tb, stack, "Beta%", x="9")
    client = stack.user_clients[0]
    raw = tb.sim.run(until=tb.sim.process(client.call(
        stack.soap_server.endpoint_for("OnServeManagement"), "usageReport")))
    lines = [l for l in raw.splitlines() if l]
    assert len(lines) == 1
    service, count, ok, total, overhead, polls = lines[0].split("|")
    assert service == "BetaService"
    assert count == "1" and ok == "1"
    assert float(total) > 0
    assert int(polls) >= 1


def test_history_survives_db_recovery(env):
    tb, stack = env
    invoke(tb, stack, "Alpha%", x="1")
    recovered = stack.dbmanager.recover_from_crash()
    rows = recovered.db.select("invocations")
    assert len(rows) == 1
    assert rows[0]["service"] == "AlphaService"


def test_record_invocation_is_one_frame_and_reads_before_the_unit():
    """History row + counter bump land as one WAL frame; the record read
    happens before the unit opens, so a replica may still serve it."""
    from types import SimpleNamespace

    tb = build_testbed(n_sites=2, nodes_per_site=2, cores_per_node=4,
                       appliance_uplink=Mbps(10))
    stack = tb.sim.run(until=deploy_onserve(
        tb, OnServeConfig(db_replicas=1)))
    tb.sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "alpha.sh", make_payload("echo", size=int(KB(2))),
        params_spec="x:string"))
    tb.sim.run(until=tb.sim.timeout(1.0))    # every write has replicated
    db, router = stack.dbmanager.db, stack.dbmanager.read_router
    frames = []
    db.wal.taps.append(frames.append)
    reads = (router.replica_reads, router.primary_reads)
    report = SimpleNamespace(job_id="j-1", started_at=tb.sim.now, total=6.0,
                             overhead=1.0, polls=0, ok=True, error=None)
    stack.onserve.record_invocation("AlphaService", report)
    assert [sorted(dml[1] for dml in f[2]) for f in frames] \
        == [["invocations", "service_records"]]
    assert (router.replica_reads, router.primary_reads) \
        == (reads[0] + 1, reads[1])
    assert db.get_by_pk("service_records", "AlphaService")["invocations"] == 1
    # An unknown service still gets its history row (no counter to bump).
    stack.onserve.record_invocation("GhostService", report)
    assert [dml[1] for dml in frames[-1][2]] == ["invocations"]
    assert len(db.find_eq("invocations", "service", "GhostService")) == 1
