"""SOAP server robustness: arbitrary handler exceptions become faults."""

import pytest

from repro.errors import SoapFault
from repro.hardware import Host, Network
from repro.hardware.host import HostSpec
from repro.simkernel import Simulator
from repro.telemetry.events import bus
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
        sim.run(until=sim.process(client.call(endpoint, "go")))
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
        sim.run(until=sim.process(client.call(endpoint, "go")))
    assert exc_info.value.detail == "KeyError: 'deep inside'"
    assert exc_info.value.root_cause == "KeyError"


def test_repro_errors_keep_server_faultcode():
    sim, server, client = make_env()

    def broken(operation, params):
        from repro.errors import JobError
        raise JobError("grid side")

    endpoint = deploy(server, broken)
    with pytest.raises(SoapFault) as exc_info:
        sim.run(until=sim.process(client.call(endpoint, "go")))
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
        sim.run(until=sim.process(client.call(endpoint, "go")))
    call = sim.process(client.call(endpoint, "go"))
    assert sim.run(until=call) == "recovered"
    assert server.service("T").faults == 1
    assert server.service("T").invocations == 2


@pytest.mark.parametrize("result", [None, {"k": "v"}, ["a", "b"]],
                         ids=["None", "dict", "list"])
def test_unencodable_result_becomes_counted_fault(result):
    # A result with no XSD mapping used to raise a raw WsError from
    # response.size() in transport(), after the crossing had finished:
    # no fault envelope, svc.faults == 0, ws.request recorded a success.
    sim, server, client = make_env()
    endpoint = deploy(server, lambda operation, params: result)
    rec = bus(sim).record("ws.request")
    with pytest.raises(SoapFault) as exc_info:
        sim.run(until=sim.process(client.call(endpoint, "go")))
    fault = exc_info.value
    assert fault.faultcode == "Server"
    assert fault.root_cause == "WsError"
    assert fault.detail == (
        f"WsError: no XSD mapping for {type(result).__name__}")
    svc = server.service("T")
    assert (svc.invocations, svc.faults) == (1, 1)
    served = rec.first("ws.request", side="server")
    assert served.get("fault") == "WsError"


def test_unencodable_string_result_becomes_fault():
    sim, server, client = make_env()
    endpoint = deploy(server, lambda operation, params: "bell\x07")
    with pytest.raises(SoapFault, match="XML cannot carry") as exc_info:
        sim.run(until=sim.process(client.call(endpoint, "go")))
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
    assert sim.run(until=sim.process(client.call(endpoint, "go"))) == "x" * 512
    with pytest.raises(SoapFault, match="boom"):
        sim.run(until=sim.process(client.call(endpoint, "go")))
    assert len(built) == 2 * per_call
    assert sorted(map(id, walked)) == sorted(map(id, built))


def test_interrupt_unwinds_the_handler_and_is_no_fault():
    # The server half runs in the process that carried the request, so
    # interrupting that process (a replica crash) unwinds the handler at
    # its yield point instead of leaving it to run on.  The same holds
    # one level down: a handler's own call to a service on its host (an
    # onServe handler calling its agent) runs in that process too, so
    # both halves of that call unwind with it.
    from repro.simkernel.process import Interrupt

    for nested in (False, True):
        sim, server, client = make_env()
        after_yield = []

        def slow(operation, params):
            yield server.sim.timeout(10.0)
            after_yield.append(server.sim.now)
            return "late"

        if nested:
            inner = server.deploy(
                ServiceDescription("A", [OperationSpec("go")]), slow)
            loopback = WsClient(server.host, server.fabric)

            def outer(operation, params):
                result = yield from loopback.call(inner, "go")
                after_yield.append(server.sim.now)
                return result

            endpoint = deploy(server, outer)
        else:
            endpoint = deploy(server, slow)
        call = sim.process(client.call(endpoint, "go"))

        def crash():
            yield sim.timeout(5.0)
            call.interrupt("crash")

        sim.process(crash())
        with pytest.raises(Interrupt) as exc_info:
            sim.run(until=call)
        assert exc_info.value.cause == "crash"
        sim.run()
        assert after_yield == []
        assert server.service("T").faults == 0
        served = [ev for ev in bus(sim).events("ws.request")
                  if ev.get("side") == "server"]
        assert ([ev.get("fault") for ev in served]
                == ["Interrupt"] * (1 + nested))
        if nested:
            assert server.service("A").faults == 0
            inner_call = [ev for ev in bus(sim).events("ws.request")
                          if ev.get("side") == "client"
                          and ev.get("service") == "A"]
            assert [ev.get("fault") for ev in inner_call] == ["Interrupt"]

    # An ordinary handler exception still becomes a counted fault.
    def broken(operation, params):
        yield server.sim.timeout(1.0)
        raise KeyError("deep inside")

    endpoint = server.deploy(
        ServiceDescription("U", [OperationSpec("go")]), broken)
    with pytest.raises(SoapFault, match="deep inside"):
        sim.run(until=sim.process(client.call(endpoint, "go")))
    assert server.service("U").faults == 1
