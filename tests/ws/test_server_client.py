"""Unit tests for the SOAP server, fabric, client and stub generation."""

import pytest

from repro.errors import ServiceNotFound, SoapFault, WsError
from repro.hardware import Host, Network
from repro.hardware.host import HostSpec
from repro.simkernel import Simulator
from repro.units import Mbps
from repro.ws import (
    OperationSpec, ParameterSpec, ServiceDescription, SoapFabric,
    SoapServer, WsClient, generate_stub,
)


def make_env():
    sim = Simulator()
    net = Network(sim)
    server_host = Host(sim, "appliance", net, HostSpec(cores=2))
    client_host = Host(sim, "user", net, HostSpec())
    net.connect("appliance", "user", bandwidth=Mbps(100), latency=0.005)
    fabric = SoapFabric()
    server = SoapServer(server_host, fabric)
    client = WsClient(client_host, fabric)
    return sim, server, client


def echo_service():
    return ServiceDescription("Echo", [
        OperationSpec("say", [ParameterSpec("text")], "xsd:string"),
        OperationSpec("add", [ParameterSpec("a", "xsd:int"),
                              ParameterSpec("b", "xsd:int")], "xsd:int"),
    ])


def echo_handler(operation, params):
    if operation == "say":
        return f"echo: {params['text']}"
    return params["a"] + params["b"]


def test_deploy_and_invoke():
    sim, server, client = make_env()
    endpoint = server.deploy(echo_service(), echo_handler)
    assert endpoint == "soap://appliance/Echo"
    result = sim.run(until=sim.process(
        client.call(endpoint, "say", text="hi")))
    assert result == "echo: hi"
    assert sim.now > 0  # network + CPU took simulated time
    assert server.requests_served == 1
    assert server.service("Echo").invocations == 1


def test_typed_result():
    sim, server, client = make_env()
    endpoint = server.deploy(echo_service(), echo_handler)
    call = sim.process(client.call(endpoint, "add", a=2, b=3))
    assert sim.run(until=call) == 5


def test_generator_handler_takes_time():
    sim, server, client = make_env()

    def slow_handler(operation, params):
        yield server.sim.timeout(42.0)
        return "done"

    svc = ServiceDescription("Slow", [OperationSpec("work")])
    endpoint = server.deploy(svc, slow_handler)
    result = sim.run(until=sim.process(client.call(endpoint, "work")))
    assert result == "done"
    assert sim.now > 42.0


def test_handler_exception_becomes_fault():
    sim, server, client = make_env()

    def broken(operation, params):
        from repro.errors import JobError
        raise JobError("the grid is on fire")

    endpoint = server.deploy(ServiceDescription("B", [OperationSpec("go")]),
                             broken)
    with pytest.raises(SoapFault, match="on fire") as exc_info:
        sim.run(until=sim.process(client.call(endpoint, "go")))
    assert exc_info.value.detail == "JobError: the grid is on fire"
    assert exc_info.value.root_cause == "JobError"
    assert exc_info.value.retryable  # JobError is transient
    assert server.service("B").faults == 1


def test_bad_arguments_fault_before_handler_runs():
    sim, server, client = make_env()
    calls = []

    def handler(operation, params):
        calls.append(operation)
        return "x"

    endpoint = server.deploy(echo_service(), handler)
    with pytest.raises(SoapFault, match="missing"):
        sim.run(until=sim.process(client.call(endpoint, "say")))
    assert calls == []


def test_unknown_service_and_operation():
    sim, server, client = make_env()
    server.deploy(echo_service(), echo_handler)
    # Unknown service/operation surface as SOAP faults at the caller
    # (the server answers; it does not silently drop the request).
    with pytest.raises(SoapFault, match="not deployed"):
        sim.run(until=sim.process(
            client.call("soap://appliance/Nope", "say", text="x")))
    with pytest.raises(SoapFault):
        sim.run(until=sim.process(
            client.call("soap://appliance/Echo", "nope")))


def test_fabric_resolution_errors():
    sim, server, client = make_env()
    with pytest.raises(WsError):
        client.fabric.resolve("http://appliance/Echo")
    with pytest.raises(WsError):
        client.fabric.resolve("soap://appliance")
    # a trailing slash with nothing after it is not a service path
    with pytest.raises(WsError, match="empty service path"):
        client.fabric.resolve("soap://appliance/")
    with pytest.raises(ServiceNotFound):
        client.fabric.resolve("soap://ghost/Echo")


def test_duplicate_deploy_and_undeploy():
    sim, server, client = make_env()
    server.deploy(echo_service(), echo_handler)
    with pytest.raises(WsError, match="already deployed"):
        server.deploy(echo_service(), echo_handler)
    server.undeploy("Echo")
    assert server.services() == []
    with pytest.raises(ServiceNotFound):
        server.undeploy("Echo")


def test_one_server_per_host():
    sim, server, client = make_env()
    with pytest.raises(WsError, match="already bound"):
        SoapServer(server.host, client.fabric)


def test_invocation_moves_bytes_both_ways():
    sim, server, client = make_env()
    endpoint = server.deploy(echo_service(), echo_handler)
    sim.run(until=sim.process(
        client.call(endpoint, "say", text="payload " * 100)))
    assert client.host.net_bytes_out() > 500   # request envelope
    assert client.host.net_bytes_in() > 100    # response envelope


# ---------------------------------------------------------------- stubs

def test_stub_generation_and_call():
    sim, server, client = make_env()
    endpoint = server.deploy(echo_service(), echo_handler)

    def flow():
        document = yield client.fetch_wsdl(endpoint)
        Stub = generate_stub(document)
        stub = Stub(client)
        result = yield from stub.add(a=20, b=22)
        return result, Stub

    result, Stub = sim.run(until=sim.process(flow()))
    assert result == 42
    assert Stub.__name__ == "EchoStub"
    assert Stub.ENDPOINT == endpoint
    assert "say" in dir(Stub)


def test_stub_validates_arguments_locally():
    sim, server, client = make_env()
    endpoint = server.deploy(echo_service(), echo_handler)

    def flow():
        document = yield client.fetch_wsdl(endpoint)
        stub = generate_stub(document)(client)
        with pytest.raises(WsError):
            stub.add(a="not-an-int", b=2)
        with pytest.raises(WsError):
            stub.say()  # missing param
        return True

    assert sim.run(until=sim.process(flow()))


def test_fetch_wsdl_transfers_document():
    sim, server, client = make_env()
    endpoint = server.deploy(echo_service(), echo_handler)

    def flow():
        return (yield client.fetch_wsdl(endpoint))

    document = sim.run(until=sim.process(flow()))
    assert b"definitions" in document
    assert client.host.net_bytes_in() >= len(document)


def test_event_budget_of_one_served_request():
    # The process the call runs in (start slot + completion), two
    # transfers whose latency timer is armed on creation (latency, flow
    # timer, completion), the dispatch CPU (flow timer, completion) and
    # the handler's own timeout.  The client half, the server half and
    # the handler all run inside that one process: they add no process
    # of their own, whose start slot and completion would cost two
    # events each.
    sim, server, client = make_env()

    def slow(operation, params):
        yield server.sim.timeout(1.0)
        return "done"

    endpoint = server.deploy(
        ServiceDescription("Slow", [OperationSpec("work")]), slow)
    before = sim.events_processed
    call = sim.process(client.call(endpoint, "work"))
    assert sim.run(until=call) == "done"
    assert sim.events_processed - before == 11
    assert sim.queued_events == 0


def test_event_budget_of_one_loopback_request():
    # A caller on the server's own host (onServe calling its agent):
    # the process (start slot + completion), the dispatch CPU (flow
    # timer, completion) and the handler's timeout.  The request and
    # the response cross no wire, so neither is a transfer: a local
    # one would cost a start slot and a completion each way.
    sim, server, _client = make_env()

    def slow(operation, params):
        yield server.sim.timeout(1.0)
        return "done"

    endpoint = server.deploy(
        ServiceDescription("Slow", [OperationSpec("work")]), slow)
    loopback = WsClient(server.host, server.fabric)
    before = sim.events_processed
    call = sim.process(loopback.call(endpoint, "work"))
    assert sim.run(until=call) == "done"
    assert sim.events_processed - before == 5
    assert sim.queued_events == 0
    assert server.host.net_bytes_out() == 0


def test_a_call_driven_inline_creates_no_process(monkeypatch):
    # ``yield from`` a call or a stub method runs the whole crossing in
    # the caller's process: no process is started for it.
    from repro.simkernel.process import Process

    sim, server, client = make_env()
    endpoint = server.deploy(echo_service(), echo_handler)
    stub = generate_stub(server.wsdl("Echo"))(client)

    def caller():
        said = yield from client.call(endpoint, "say", text="hi")
        added = yield from stub.add(a=20, b=22)
        return said, added

    outer = sim.process(caller())
    started = []
    real_init = Process.__init__

    def counting_init(self, *args, **kwargs):
        started.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    assert sim.run(until=outer) == ("echo: hi", 42)
    assert started == []
    assert server.requests_served == 2
