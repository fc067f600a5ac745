"""Integration tests: the full onServe pipeline on a live testbed."""

import pytest

from repro.core import OnServeConfig, deploy_onserve, discover_and_invoke
from repro.core.invocation import discover_service
from repro.errors import ServiceNotFound, SoapFault
from repro.grid import build_testbed
from repro.units import KB, MB, Mbps
from repro.workloads import make_payload


def stack_env(config=None, **testbed_kw):
    testbed_kw.setdefault("n_sites", 3)
    testbed_kw.setdefault("nodes_per_site", 2)
    testbed_kw.setdefault("cores_per_node", 4)
    testbed_kw.setdefault("appliance_uplink", Mbps(8))
    tb = build_testbed(**testbed_kw)
    stack = tb.sim.run(until=deploy_onserve(tb, config))
    return tb, stack


def upload(tb, stack, name="hello.sh", payload=None, params="name:string",
           description="demo"):
    payload = payload or make_payload("echo", size=int(KB(2)))
    return tb.sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], name, payload, description=description,
        params_spec=params))


def test_deployment_brings_up_everything():
    tb, stack = stack_env()
    assert stack.appliance.startup_seconds > 10
    assert "CyberaideAgent" in stack.soap_server.services()
    assert tb.myproxy.has_credential("onserve")
    assert stack.uddi.find_business("Cyberaide%")


def test_upload_generates_and_publishes():
    tb, stack = stack_env()
    service = upload(tb, stack)
    assert service.service_name == "HelloService"
    assert service.endpoint == "soap://appliance/HelloService"
    assert "HelloService" in stack.soap_server.services()
    assert stack.dbmanager.has_executable("hello.sh")
    hits = stack.uddi.find_service("HelloService")
    assert len(hits) == 1
    binding = stack.uddi.get_bindings(hits[0].key)[0]
    assert binding.access_point == service.endpoint
    assert binding.wsdl_location.endswith("?wsdl")
    assert service.archive_size > 100


def test_full_saas_invocation_returns_real_output():
    tb, stack = stack_env()
    upload(tb, stack)
    client = stack.user_clients[0]
    out = tb.sim.run(until=discover_and_invoke(stack, client, "Hello%",
                                               name="world"))
    assert out == "world\n"
    runtime = stack.onserve.runtimes["HelloService"]
    report = runtime.last_report
    assert report.ok
    assert report.polls >= 1
    assert report.job_id
    assert report.total > report.overhead > 0


def test_invocation_runs_real_computation():
    tb, stack = stack_env()
    payload = make_payload("mcpi", size=int(KB(4)))
    upload(tb, stack, name="pi-estimator.sh", payload=payload,
           params="samples:int, seed:int")
    out = tb.sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "PiEstimator%",
        samples=50000, seed=3))
    estimate = float(out.splitlines()[-1].split("=")[1])
    assert abs(estimate - 3.14159) < 0.1


def test_tentative_polling_produces_periodic_disk_writes():
    config = OnServeConfig(poll_interval=9.0)
    tb, stack = stack_env(config)
    payload = make_payload("fixed", size=int(KB(2)), runtime="120",
                           output_bytes="4096")
    upload(tb, stack, name="long.sh", payload=payload, params="")
    host = stack.appliance_host
    written_before = host.disk.bytes_written()
    tb.sim.run(until=discover_and_invoke(stack, stack.user_clients[0],
                                         "Long%"))
    runtime = stack.onserve.runtimes["LongService"]
    report = runtime.last_report
    # ~120 s at a 9 s poll interval -> on the order of a dozen polls.
    assert report.polls >= 8
    assert host.disk.bytes_written() > written_before


def test_second_invocation_reuploads_executable():
    tb, stack = stack_env()
    upload(tb, stack)
    client = stack.user_clients[0]
    tb.sim.run(until=discover_and_invoke(stack, client, "Hello%", name="a"))
    tb.sim.run(until=discover_and_invoke(stack, client, "Hello%", name="b"))
    # Faithful behaviour: the file is uploaded to the grid twice.
    assert stack.agent.uploads == 2


def test_upload_cache_ablation_skips_reupload():
    tb, stack = stack_env(OnServeConfig(upload_cache=True))
    upload(tb, stack)
    client = stack.user_clients[0]
    tb.sim.run(until=discover_and_invoke(stack, client, "Hello%", name="a"))
    tb.sim.run(until=discover_and_invoke(stack, client, "Hello%", name="b"))
    assert stack.agent.uploads == 1


def test_status_ablation_uses_status_polling():
    tb, stack = stack_env(OnServeConfig(status_supported=True))
    payload = make_payload("fixed", size=int(KB(2)), runtime="60")
    upload(tb, stack, name="s.sh", payload=payload, params="")
    out = tb.sim.run(until=discover_and_invoke(stack, stack.user_clients[0],
                                               "S%"))
    assert out.startswith("fixed-profile")
    assert stack.agent.output_polls == 1  # only the final fetch


def test_double_write_flag_changes_disk_traffic():
    payload = make_payload("echo", size=int(MB(2)))

    def measure(double_write):
        tb, stack = stack_env(OnServeConfig(double_write=double_write))
        before = stack.appliance_host.disk.bytes_written()
        upload(tb, stack, name="big.bin", payload=payload, params="")
        return stack.appliance_host.disk.bytes_written() - before

    faithful = measure(True)
    improved = measure(False)
    assert faithful > improved + MB(1)  # the temp copy is gone


def test_reupload_replaces_executable_keeps_service():
    tb, stack = stack_env()
    upload(tb, stack, payload=make_payload("echo", size=1000))
    v2 = make_payload("echo", size=3000)
    service = upload(tb, stack, payload=v2)
    assert service.service_name == "HelloService"
    assert len(stack.onserve.list_services()) == 1
    sizes = stack.dbmanager.executable_sizes("hello.sh")
    assert sizes["size"] == 3000


def test_invoke_with_wrong_params_faults():
    tb, stack = stack_env()
    upload(tb, stack)
    client = stack.user_clients[0]
    with pytest.raises(Exception):  # stub validates locally -> WsError
        tb.sim.run(until=discover_and_invoke(stack, client, "Hello%",
                                             wrong_param="x"))


def test_discover_unknown_service():
    tb, stack = stack_env()
    with pytest.raises(ServiceNotFound):
        tb.sim.run(until=discover_service(stack, stack.user_clients[0],
                                          "Nothing%"))


def test_undeploy_removes_everywhere():
    tb, stack = stack_env()
    upload(tb, stack)
    tb.sim.run(until=stack.onserve.undeploy_service("HelloService"))
    assert "HelloService" not in stack.soap_server.services()
    assert stack.uddi.find_service("HelloService") == []
    assert not stack.dbmanager.has_executable("hello.sh")
    with pytest.raises(ServiceNotFound):
        stack.onserve.get_service("HelloService")


def test_grid_job_failure_surfaces_as_fault(monkeypatch):
    # Executable sleeps longer than the walltime -> killed on the grid.
    from repro.core.grid_service import GridServiceRuntime
    monkeypatch.setattr(GridServiceRuntime, "JOB_WALLTIME", 30)
    config = OnServeConfig(poll_interval=5.0, watchdog_timeout=120.0)
    tb, stack = stack_env(config)
    payload = make_payload("fixed", size=int(KB(1)), runtime="300")
    upload(tb, stack, name="runaway.sh", payload=payload, params="")
    with pytest.raises(SoapFault):
        tb.sim.run(until=discover_and_invoke(stack, stack.user_clients[0],
                                             "Runaway%"))
    runtime = stack.onserve.runtimes["RunawayService"]
    report = runtime.last_report
    assert not report.ok
    assert report.error
    assert (runtime.invocations, runtime.invocations_ok) == (1, 0)


def test_describe_operation():
    tb, stack = stack_env()
    upload(tb, stack, description="the hello service")
    client = stack.user_clients[0]
    result = tb.sim.run(until=tb.sim.process(client.call(
        "soap://appliance/HelloService", "describe")))
    assert result == "the hello service"


def test_empty_upload_rejected():
    tb, stack = stack_env()
    with pytest.raises(Exception):
        tb.sim.run(until=stack.portal.upload_and_generate(
            tb.user_hosts[0], "empty.sh", b""))


def test_multiuser_concurrent_invocations():
    tb, stack = stack_env(n_users=3)
    upload(tb, stack)
    results = []

    def user_flow(client, name):
        out = yield discover_and_invoke(stack, client, "Hello%", name=name)
        results.append(out)

    for i, client in enumerate(stack.user_clients):
        tb.sim.process(user_flow(client, f"user{i}"))
    tb.sim.run()
    assert sorted(results) == ["user0\n", "user1\n", "user2\n"]
