"""Tests for the UDDI inquiry service and the management service."""

import pytest

from repro.core import deploy_onserve
from repro.core.invocation import discover_and_invoke
from repro.errors import SoapFault
from repro.telemetry.events import bus
from repro.grid import build_testbed
from repro.units import KB, Mbps
from repro.workloads import make_payload
from repro.ws.uddi_service import parse_binding_lines, parse_service_lines


@pytest.fixture()
def env():
    tb = build_testbed(n_sites=2, nodes_per_site=2, cores_per_node=4,
                       appliance_uplink=Mbps(10))
    stack = tb.sim.run(until=deploy_onserve(tb))
    payload = make_payload("echo", size=int(KB(2)))
    tb.sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "hello.sh", payload, description="greets",
        params_spec="name:string"))
    return tb, stack


def call(tb, stack, service, operation, **params):
    client = stack.user_clients[0]
    endpoint = stack.soap_server.endpoint_for(service)
    return tb.sim.run(until=tb.sim.process(
        client.call(endpoint, operation, **params)))


# ---------------------------------------------------------------- inquiry

def test_inquiry_find_service_over_soap(env):
    tb, stack = env
    raw = call(tb, stack, "UddiInquiry", "findService", pattern="Hello%")
    hits = parse_service_lines(raw)
    assert len(hits) == 1
    assert hits[0]["name"] == "HelloService"
    assert hits[0]["description"] == "greets"


def test_inquiry_get_bindings_over_soap(env):
    tb, stack = env
    raw = call(tb, stack, "UddiInquiry", "findService", pattern="Hello%")
    key = parse_service_lines(raw)[0]["key"]
    bindings = parse_binding_lines(
        call(tb, stack, "UddiInquiry", "getBindings", serviceKey=key))
    assert bindings[0]["access_point"] == "soap://appliance/HelloService"
    assert bindings[0]["wsdl_location"].endswith("?wsdl")


def test_inquiry_empty_result(env):
    tb, stack = env
    raw = call(tb, stack, "UddiInquiry", "findService", pattern="Ghost%")
    assert parse_service_lines(raw) == []


def test_inquiry_find_business(env):
    tb, stack = env
    raw = call(tb, stack, "UddiInquiry", "findBusiness", pattern="Cyber%")
    assert "Cyberaide onServe" in raw


def test_inquiry_service_count(env):
    tb, stack = env
    assert call(tb, stack, "UddiInquiry", "serviceCount") == 1


def test_inquiry_bad_key_faults(env):
    tb, stack = env
    with pytest.raises(SoapFault):
        call(tb, stack, "UddiInquiry", "getBindings", serviceKey="uuid:nope")


def test_discovery_generates_inquiry_traffic(env):
    tb, stack = env
    inquiry_before = None
    # Find the deployed inquiry wrapper and count its invocations.
    svc = stack.soap_server.service("UddiInquiry")
    before = svc.invocations
    tb.sim.run(until=discover_and_invoke(stack, stack.user_clients[0],
                                         "Hello%", name="x"))
    assert svc.invocations >= before + 2  # findService + getBindings


# ---------------------------------------------------------------- management

def test_management_list_services(env):
    tb, stack = env
    raw = call(tb, stack, "OnServeManagement", "listServices")
    assert raw.startswith("HelloService|soap://appliance/HelloService|"
                          "hello.sh|0")


def test_management_describe(env):
    tb, stack = env
    tb.sim.run(until=discover_and_invoke(stack, stack.user_clients[0],
                                         "Hello%", name="x"))
    detail = call(tb, stack, "OnServeManagement", "describeService",
                  name="HelloService")
    assert "executable   : hello.sh" in detail
    assert "invocations  : 1 (1 ok)" in detail


def test_report_counts_and_the_last_report_survive_the_list(env):
    """A runtime keeps counts and its newest report, not one report per
    execute: what management and the figures read is all there is."""
    tb, stack = env
    runtime = stack.onserve.runtimes["HelloService"]
    assert (runtime.invocations, runtime.last_report) == (0, None)
    for name in ("a", "b", "c"):
        tb.sim.run(until=discover_and_invoke(stack, stack.user_clients[0],
                                             "Hello%", name=name))
    last = bus(tb.sim).events(kind="gram.submit")[-1]
    report = runtime.last_report
    assert report.ok and report.job_id == last.fields["job_id"]
    assert report.output_bytes == len("c\n")
    assert (runtime.invocations, runtime.invocations_ok) == (3, 3)
    assert not hasattr(runtime, "reports")
    detail = call(tb, stack, "OnServeManagement", "describeService",
                  name="HelloService")
    assert "invocations  : 3 (3 ok)" in detail


def test_management_describe_unknown_faults(env):
    tb, stack = env
    with pytest.raises(SoapFault, match="no service"):
        call(tb, stack, "OnServeManagement", "describeService", name="Nope")


def test_management_undeploy_over_soap(env):
    tb, stack = env
    assert call(tb, stack, "OnServeManagement", "undeployService",
                name="HelloService") is True
    assert "HelloService" not in stack.soap_server.services()
    assert stack.uddi.find_service("HelloService") == []
    assert call(tb, stack, "OnServeManagement", "listServices") == ""


def test_management_list_executables(env):
    tb, stack = env
    raw = call(tb, stack, "OnServeManagement", "listExecutables")
    name, size, compressed, stored_at = raw.split("|")
    assert name == "hello.sh"
    assert int(size) == 2048
    assert 0 < int(compressed)
