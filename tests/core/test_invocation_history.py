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
    onserve = stack.onserve
    assert onserve.invocation_count(onserve.get_service("AlphaService")) == 2


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
    assert by_service["AlphaService"]["count"] == 2
    assert by_service["AlphaService"]["ok"] == 2
    assert by_service["AlphaService"]["avg_total"] > 0


def test_usage_report_over_soap(env, monkeypatch):
    """Two services, one failed run: a line per service in name order,
    the failure counted in ``count`` but not ``ok``, means to 0.1 s."""
    from repro.core.grid_service import GridServiceRuntime
    tb, stack = env
    tb.sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "doomed.sh",
        make_payload("fixed", size=int(KB(1)), runtime="500"),
        params_spec=""))
    stack.onserve.config.watchdog_timeout = 200.0
    with monkeypatch.context() as patch:
        patch.setattr(GridServiceRuntime, "JOB_WALLTIME", 30)
        with pytest.raises(SoapFault):
            invoke(tb, stack, "Doomed%")
    invoke(tb, stack, "Beta%", x="9")
    stack.onserve.config.watchdog_timeout = 6 * 3600.0
    invoke(tb, stack, "Doomed%")
    client = stack.user_clients[0]
    raw = tb.sim.run(until=tb.sim.process(client.call(
        stack.soap_server.endpoint_for("OnServeManagement"), "usageReport")))
    assert raw.splitlines() == [
        "BetaService|1|1|10.2|0.7|2",
        "DoomedService|2|1|354.7|0.6|56",
    ]


def test_history_survives_db_recovery(env):
    tb, stack = env
    invoke(tb, stack, "Alpha%", x="1")
    recovered = stack.dbmanager.recover_from_crash()
    rows = recovered.db.select("invocations")
    assert len(rows) == 1
    assert rows[0]["service"] == "AlphaService"


def test_record_invocation_is_one_history_frame_and_reads_nothing():
    """One ``invocations`` insert, one WAL frame, no other table written
    and no read — routed or not — before it."""
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
    record = db.get_by_pk("service_records", "AlphaService")
    frames = []
    db.wal.taps.append(frames.append)
    reads = (router.replica_reads, router.primary_reads)
    report = SimpleNamespace(job_id="j-1", started_at=tb.sim.now, total=6.0,
                             overhead=1.0, polls=0, ok=True, error=None)
    for name in ("AlphaService", "GhostService"):
        stack.onserve.record_invocation(name, report)
    assert [[dml[:2] for dml in f[2]] for f in frames] \
        == [[("insert", "invocations")]] * 2
    assert (router.replica_reads, router.primary_reads) == reads
    assert db.get_by_pk("service_records", "AlphaService") == record
    assert len(db.find_eq("invocations", "service", "GhostService")) == 1


def _list_services(tb, stack):
    client = stack.user_clients[0]
    raw = tb.sim.run(until=tb.sim.process(client.call(
        stack.soap_server.endpoint_for("OnServeManagement"),
        "listServices")))
    return {line.split("|")[0]: int(line.split("|")[3])
            for line in raw.splitlines()}


def test_the_count_is_the_history_rows_since_publish(env):
    """``listServices`` counts history rows; a service undeployed and
    published again under the same name starts from zero while its old
    rows stay in the history."""
    tb, stack = env
    onserve, db = stack.onserve, stack.dbmanager.db
    invoke(tb, stack, "Alpha%", x="1")
    invoke(tb, stack, "Alpha%", x="2")
    invoke(tb, stack, "Beta%", x="3")
    for name in ("AlphaService", "BetaService"):
        assert onserve.invocation_count(onserve.get_service(name)) \
            == len(db.find_eq("invocations", "service", name))
    assert _list_services(tb, stack) == {"AlphaService": 2,
                                         "BetaService": 1}
    tb.sim.run(until=onserve.undeploy_service("AlphaService"))
    tb.sim.run(until=tb.sim.timeout(5.0))
    tb.sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "alpha.sh", make_payload("echo", size=int(KB(2))),
        params_spec="x:string"))
    assert len(db.find_eq("invocations", "service", "AlphaService")) == 2
    assert _list_services(tb, stack) == {"AlphaService": 0,
                                         "BetaService": 1}
    invoke(tb, stack, "Alpha%", x="4")
    assert _list_services(tb, stack) == {"AlphaService": 1,
                                         "BetaService": 1}
