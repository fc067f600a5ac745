"""SOAP server robustness: arbitrary handler exceptions become faults."""

import pytest

from repro.errors import SoapFault
from repro.hardware import Host, Network
from repro.hardware.host import HostSpec
from repro.simkernel import Simulator
from repro.units import Mbps
from repro.ws import (
    OperationSpec, ServiceDescription, SoapFabric, SoapServer, WsClient,
)


def make_env():
    sim = Simulator()
    net = Network(sim)
    server_host = Host(sim, "s", net, HostSpec())
    client_host = Host(sim, "c", net, HostSpec())
    net.connect("s", "c", bandwidth=Mbps(100))
    fabric = SoapFabric()
    server = SoapServer(server_host, fabric)
    client = WsClient(client_host, fabric)
    return sim, server, client


def deploy(server, handler):
    return server.deploy(ServiceDescription("T", [OperationSpec("go")]),
                         handler)


def test_plain_python_exception_becomes_internal_fault():
    sim, server, client = make_env()

    def broken(operation, params):
        raise ValueError("not a repro error")

    endpoint = deploy(server, broken)
    with pytest.raises(SoapFault, match="not a repro error") as exc_info:
        sim.run(until=client.call(endpoint, "go"))
    assert exc_info.value.faultcode == "Server.Internal"
    assert exc_info.value.detail == "ValueError: not a repro error"
    assert exc_info.value.root_cause == "ValueError"


def test_generator_handler_exception_becomes_fault():
    sim, server, client = make_env()

    def broken(operation, params):
        yield server.sim.timeout(1.0)
        raise KeyError("deep inside")

    endpoint = deploy(server, broken)
    with pytest.raises(SoapFault) as exc_info:
        sim.run(until=client.call(endpoint, "go"))
    assert exc_info.value.detail == "KeyError: 'deep inside'"
    assert exc_info.value.root_cause == "KeyError"


def test_repro_errors_keep_server_faultcode():
    sim, server, client = make_env()

    def broken(operation, params):
        from repro.errors import JobError
        raise JobError("grid side")

    endpoint = deploy(server, broken)
    with pytest.raises(SoapFault) as exc_info:
        sim.run(until=client.call(endpoint, "go"))
    assert exc_info.value.faultcode == "Server"


def test_server_survives_faults_and_keeps_serving():
    sim, server, client = make_env()
    calls = {"n": 0}

    def flaky(operation, params):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("first call dies")
        return "recovered"

    endpoint = deploy(server, flaky)
    with pytest.raises(SoapFault):
        sim.run(until=client.call(endpoint, "go"))
    assert sim.run(until=client.call(endpoint, "go")) == "recovered"
    assert server.service("T").faults == 1
    assert server.service("T").invocations == 2


@pytest.mark.parametrize("result", [None, {"k": "v"}, ["a", "b"]],
                         ids=["None", "dict", "list"])
def test_unencodable_result_becomes_counted_fault(result):
    # A result with no XSD mapping used to raise a raw WsError from
    # response.size() in transport(), after the pipeline had finished:
    # no fault envelope, svc.faults == 0, metrics recorded a success.
    sim, server, client = make_env()
    endpoint = deploy(server, lambda operation, params: result)
    with pytest.raises(SoapFault) as exc_info:
        sim.run(until=client.call(endpoint, "go"))
    fault = exc_info.value
    assert fault.faultcode == "Server"
    assert fault.root_cause == "WsError"
    assert fault.detail == (
        f"WsError: no XSD mapping for {type(result).__name__}")
    svc = server.service("T")
    assert (svc.invocations, svc.faults) == (1, 1)
    stats = server.metrics.get("T", "go")
    assert (stats.calls, stats.faults) == (1, 1)


def test_unencodable_string_result_becomes_fault():
    sim, server, client = make_env()
    endpoint = deploy(server, lambda operation, params: "bell\x07")
    with pytest.raises(SoapFault, match="XML cannot carry") as exc_info:
        sim.run(until=client.call(endpoint, "go"))
    assert exc_info.value.root_cause == "WsError"
    assert server.service("T").faults == 1


@pytest.mark.parametrize("path", ["server", "router", "healing"])
def test_each_envelope_is_sized_once(monkeypatch, path):
    # _dispatch sizes the response to validate it and the transport
    # sizes it again to send it: the second ask must not walk it again.
    from repro.ws.soap import SoapEnvelope
    from tests.ws.test_router import routed_service

    calls = []

    def handler(operation, params):
        calls.append(operation)
        if len(calls) == 2:
            raise ValueError("boom")
        return "x" * 512

    if path == "server":
        sim, server, client = make_env()
        endpoint = deploy(server, handler)
        per_call = 2  # request + response
    else:
        sim, router, _owner, client = routed_service(
            handler=handler, self_healing=(path == "healing"))
        endpoint = router.endpoint_for("T")
        per_call = 4  # client -> router -> replica and back, one each

    built, walked = [], []
    init, measure = SoapEnvelope.__init__, SoapEnvelope._measure

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counting_measure(self):
        walked.append(self)
        return measure(self)

    monkeypatch.setattr(SoapEnvelope, "__init__", counting_init)
    monkeypatch.setattr(SoapEnvelope, "_measure", counting_measure)
    assert sim.run(until=client.call(endpoint, "go")) == "x" * 512
    with pytest.raises(SoapFault, match="boom"):
        sim.run(until=client.call(endpoint, "go"))
    assert len(built) == 2 * per_call
    assert sorted(map(id, walked)) == sorted(map(id, built))
