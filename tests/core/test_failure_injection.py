"""Failure-injection tests on the full onServe stack."""

import pytest

from repro.core import (
    OnServe, OnServeConfig, deploy_onserve, discover_and_invoke,
)
from repro.core.grid_service import GridServiceRuntime
from repro.errors import HardwareError, SoapFault
from repro.grid import build_testbed
from repro.hardware.host import HostSpec
from repro.units import KB, MB, MBps, Mbps
from repro.workloads import make_payload


def stack_env(config=None, **testbed_kw):
    testbed_kw.setdefault("n_sites", 2)
    testbed_kw.setdefault("nodes_per_site", 2)
    testbed_kw.setdefault("cores_per_node", 4)
    testbed_kw.setdefault("appliance_uplink", Mbps(8))
    tb = build_testbed(**testbed_kw)
    stack = tb.sim.run(until=deploy_onserve(tb, config))
    return tb, stack


def upload(tb, stack, name="job.sh", payload=None, params=""):
    payload = payload or make_payload("fixed", size=int(KB(4)),
                                      runtime="30")
    return tb.sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], name, payload, params_spec=params))


# ------------------------------------------------------------ session expiry

def test_agent_session_renews_between_invocations(monkeypatch):
    monkeypatch.setattr(OnServe, "SESSION_RENEWAL", 60.0)
    tb, stack = stack_env()
    upload(tb, stack)
    client = stack.user_clients[0]
    tb.sim.run(until=discover_and_invoke(stack, client, "Job%"))
    logons_after_first = tb.myproxy.logons_served
    # Wait past the renewal horizon; the next invocation re-authenticates.
    tb.sim.run(until=tb.sim.timeout(3600.0))
    tb.sim.run(until=discover_and_invoke(stack, client, "Job%"))
    assert tb.myproxy.logons_served == logons_after_first + 1


def test_session_cached_within_renewal_window(monkeypatch):
    monkeypatch.setattr(OnServe, "SESSION_RENEWAL", 7200.0)
    tb, stack = stack_env()
    upload(tb, stack)
    client = stack.user_clients[0]
    tb.sim.run(until=discover_and_invoke(stack, client, "Job%"))
    tb.sim.run(until=discover_and_invoke(stack, client, "Job%"))
    assert tb.myproxy.logons_served == 1  # one logon served both


# ------------------------------------------------------------ watchdog

def test_watchdog_gives_up_on_everlasting_job(monkeypatch):
    monkeypatch.setattr(GridServiceRuntime, "JOB_WALLTIME", 1800)
    config = OnServeConfig(poll_interval=5.0, watchdog_timeout=60.0)
    tb, stack = stack_env(config)
    payload = make_payload("fixed", size=int(KB(2)), runtime="1200")
    upload(tb, stack, payload=payload)
    with pytest.raises(SoapFault, match="polling gave up"):
        tb.sim.run(until=discover_and_invoke(stack, stack.user_clients[0],
                                             "Job%"))
    report = stack.onserve.runtimes["JobService"].reports[0]
    assert "WatchdogTimeout" in report.error


# ------------------------------------------------------------ disk full

def test_appliance_disk_full_fails_upload():
    # The ~305 MB appliance image fits, but little room remains after it.
    tb, stack = stack_env(
        appliance_spec=HostSpec(cores=2, disk_bandwidth=MBps(25),
                                disk_capacity=330 * MB(1)))
    big = make_payload("fixed", size=int(60 * MB(1)), runtime="10")
    with pytest.raises(HardwareError, match="disk full"):
        tb.sim.run(until=stack.portal.upload_and_generate(
            tb.user_hosts[0], "big.bin", big))


# ------------------------------------------------------------ DB crash

def test_dbmanager_recovers_committed_executables_after_crash():
    tb, stack = stack_env()
    upload(tb, stack, name="keep.sh")
    # Crash: rebuild the manager from its WAL image.
    recovered = stack.dbmanager.recover_from_crash()
    assert recovered.has_executable("keep.sh")

    def reload():
        exe = yield recovered.load_executable("keep.sh")
        return exe

    exe = tb.sim.run(until=tb.sim.process(reload()))
    assert exe.payload.startswith(b"#!repro-exe")


def test_dbmanager_recovery_drops_torn_tail():
    tb, stack = stack_env()
    upload(tb, stack, name="first.sh")
    image_before = stack.dbmanager.db.wal.snapshot()
    upload(tb, stack, name="second.sh")
    # Crash with the second upload's tail torn off.
    torn = stack.dbmanager.db.wal.snapshot()[: len(image_before) + 11]
    from repro.db import Database, DbManager
    recovered = DbManager(stack.appliance_host,
                          db=Database.recover(torn))
    assert recovered.has_executable("first.sh")
    assert not recovered.has_executable("second.sh")


# ------------------------------------------------------------ grid-side failure

def test_node_failure_mid_invocation_surfaces_as_fault():
    config = OnServeConfig(poll_interval=5.0, watchdog_timeout=600.0)
    tb, stack = stack_env(config, n_sites=1)
    payload = make_payload("fixed", size=int(KB(2)), runtime="300",
                           output_bytes="1024")
    upload(tb, stack, payload=payload)
    site = tb.sites[0]

    def saboteur():
        yield tb.sim.timeout(60.0)
        # Kill every node the job might be on (count=1 -> first node).
        victims = site.fail_node(site.pool.nodes[0].name)
        assert victims  # the running job died

    tb.sim.process(saboteur())
    with pytest.raises(SoapFault):
        tb.sim.run(until=discover_and_invoke(stack, stack.user_clients[0],
                                             "Job%"))
