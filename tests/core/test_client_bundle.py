"""Tests for downloadable client bundles (generated stub source)."""

import io
import zipfile

import pytest

from repro.core import deploy_onserve
from repro.errors import SoapFault
from repro.grid import build_testbed
from repro.units import KB, Mbps
from repro.workloads import make_payload
from repro.ws.client import generate_stub_source
from repro.ws.wsdl import generate_wsdl
from repro.ws.registryapi import OperationSpec, ParameterSpec, ServiceDescription


@pytest.fixture()
def env():
    tb = build_testbed(n_sites=1, nodes_per_site=2, cores_per_node=4,
                       appliance_uplink=Mbps(10))
    stack = tb.sim.run(until=deploy_onserve(tb))
    payload = make_payload("echo", size=int(KB(2)))
    tb.sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "hello.sh", payload,
        params_spec="name:string, times:int"))
    return tb, stack


def test_generated_source_is_valid_python():
    svc = ServiceDescription("Demo", [
        OperationSpec("execute", [ParameterSpec("x", "xsd:int")],
                      "xsd:string"),
        OperationSpec("ping", [], "xsd:string"),
    ])
    source = generate_stub_source(generate_wsdl(svc, "soap://h/Demo"))
    namespace = {}
    exec(compile(source, "demo_stub.py", "exec"), namespace)
    stub_cls = namespace["DemoStub"]
    assert stub_cls.ENDPOINT == "soap://h/Demo"
    assert "execute" in stub_cls.__dict__
    assert "ping" in stub_cls.__dict__


def test_bundle_download_over_soap(env):
    tb, stack = env
    client = stack.user_clients[0]
    data = tb.sim.run(until=tb.sim.process(client.call(
        stack.soap_server.endpoint_for("OnServeManagement"),
        "clientBundle", name="HelloService")))
    with zipfile.ZipFile(io.BytesIO(data)) as bundle:
        names = set(bundle.namelist())
        assert names == {"helloservice_stub.py", "HelloService.wsdl",
                         "README.txt"}
        source = bundle.read("helloservice_stub.py").decode()
        wsdl = bundle.read("HelloService.wsdl")
    assert "class HelloServiceStub:" in source
    assert b"definitions" in wsdl


def test_downloaded_stub_actually_works(env):
    """The full §VIII.D.4 path: download the bundle, exec the stub,
    invoke the grid through it."""
    tb, stack = env
    client = stack.user_clients[0]
    data = tb.sim.run(until=tb.sim.process(client.call(
        stack.soap_server.endpoint_for("OnServeManagement"),
        "clientBundle", name="HelloService")))
    with zipfile.ZipFile(io.BytesIO(data)) as bundle:
        source = bundle.read("helloservice_stub.py").decode()
    namespace = {}
    exec(compile(source, "helloservice_stub.py", "exec"), namespace)
    stub = namespace["HelloServiceStub"](client)
    out = tb.sim.run(until=tb.sim.process(
        stub.execute(name="bundled", times=2)))
    assert out == "bundled\n2\n"


def test_bundle_for_unknown_service_faults(env):
    tb, stack = env
    client = stack.user_clients[0]
    with pytest.raises(SoapFault, match="no service"):
        tb.sim.run(until=tb.sim.process(client.call(
            stack.soap_server.endpoint_for("OnServeManagement"),
            "clientBundle", name="Ghost")))
