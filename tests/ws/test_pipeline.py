"""Unit tests for the SOAP crossing (the request-fabric spine)."""

import pytest

from repro.core.context import RequestContext
from repro.errors import SoapFault
from repro.hardware import Host, Network
from repro.hardware.host import HostSpec
from repro.simkernel import Simulator
from repro.units import Mbps
from repro.telemetry.events import bus
from repro.ws import (
    Invocation, OperationSpec, ParameterSpec, ServiceDescription, SoapFabric,
    SoapServer, WsClient, cross,
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
    ])


def echo_handler(operation, params):
    return f"echo: {params['text']}"


def drive(gen):
    """Run a yield-free crossing generator to completion."""
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("crossing unexpectedly yielded")


# -- the crossing ------------------------------------------------------------

def test_crossing_closes_its_span_before_its_one_event():
    sim = Simulator()
    events = bus(sim)
    ctx = RequestContext.create(sim, principal="user")
    log = []

    def span_closed():
        return ctx.root.find("server:Svc.op").closed

    def terminal(inv):
        log.append(("terminal", span_closed()))
        return inv.params["x"] * 2
        yield  # pragma: no cover - makes terminal a generator

    events.subscribe(lambda ev: log.append(("event", span_closed())),
                     kinds=["ws.request"])
    inv = Invocation(ctx, "Svc", "op", {"x": 21}, "server")
    assert drive(cross(events, "appliance", inv, terminal)) == 42
    assert log == [("terminal", False), ("event", True)]
    (ev,) = events.events("ws.request")
    assert ev.request_id == ctx.request_id
    assert ev.fields == {"service": "Svc", "operation": "op",
                         "side": "server", "latency": 0.0, "fault": None,
                         "origin": "appliance"}


# -- deadlines ---------------------------------------------------------------

def test_deadline_exceeded_faults_at_the_caller():
    sim, server, client = make_env()
    endpoint = server.deploy(echo_service(), echo_handler)
    ctx = RequestContext.create(sim, principal="user", deadline=1.0)
    faults = []

    def caller():
        yield sim.timeout(2.0)  # the deadline passes before we dispatch
        try:
            yield client.call(endpoint, "say", ctx=ctx, text="late")
        except SoapFault as fault:
            faults.append(fault)

    sim.process(caller())
    sim.run()

    (fault,) = faults
    # the client-side crossing refuses first: no bytes hit the wire
    assert fault.faultcode == "Client.DeadlineExceeded"
    assert fault.detail == "DeadlineExceeded"
    assert server.requests_served == 0
    assert ctx.expired


def test_live_deadline_lets_the_request_through():
    sim, server, client = make_env()
    endpoint = server.deploy(echo_service(), echo_handler)
    ctx = RequestContext.create(sim, principal="user", deadline=100.0)
    result = sim.run(until=client.call(endpoint, "say", ctx=ctx, text="hi"))
    assert result == "echo: hi"
    assert not ctx.expired
    assert ctx.remaining < 100.0  # the call consumed simulated time


# -- tracing -----------------------------------------------------------------

def test_trace_spans_nest_client_around_server():
    sim, server, client = make_env()
    endpoint = server.deploy(echo_service(), echo_handler)
    ctx = RequestContext.create(sim, principal="user")
    sim.run(until=client.call(endpoint, "say", ctx=ctx, text="hi"))

    client_span = ctx.root.find("client:Echo.say")
    server_span = ctx.root.find("server:Echo.say")
    assert client_span is not None and server_span is not None
    assert server_span.parent is client_span
    assert client_span.closed and server_span.closed
    # the server span sits inside the client span's sim-time window
    assert client_span.start <= server_span.start
    assert server_span.end <= client_span.end
    assert client_span.duration > 0
    assert ctx.request_id in ctx.waterfall()


def test_trace_span_marks_faulting_call():
    sim, server, client = make_env()

    def broken(operation, params):
        raise RuntimeError("boom")

    endpoint = server.deploy(echo_service(), broken)
    ctx = RequestContext.create(sim, principal="user")
    with pytest.raises(SoapFault):
        sim.run(until=client.call(endpoint, "say", ctx=ctx, text="hi"))
    server_span = ctx.root.find("server:Echo.say")
    assert server_span.meta["error"] == "RuntimeError"


# -- the ws.request record ---------------------------------------------------

def test_metrics_record_latency_on_both_sides():
    sim, server, client = make_env()

    def working_handler(operation, params):
        yield sim.timeout(0.25)  # give the server side real sim time
        return f"echo: {params['text']}"

    endpoint = server.deploy(echo_service(), working_handler)
    rec = bus(sim).record("ws.request")
    sim.run(until=client.call(endpoint, "say", text="hi"))
    sim.run(until=client.call(endpoint, "say", text="ho"))

    events = rec.events("ws.request")
    assert [ev.get("side") for ev in events] == ["server", "client"] * 2
    for ev in events:
        assert (ev.get("service"), ev.get("operation")) == ("Echo", "say")
        assert ev.get("fault") is None
        assert ev.get("latency") > 0
    assert [ev.get("origin") for ev in events[:2]] == ["appliance", "user"]
    # client-observed latency includes the network; server's does not
    for server_ev, client_ev in (events[0:2], events[2:4]):
        assert client_ev.get("latency") > server_ev.get("latency")


def test_metrics_interceptor_standalone_counts_faults():
    sim = Simulator()
    rec = bus(sim).record("ws.request")

    def failing(inv):
        raise SoapFault(faultcode="Server", faultstring="nope")
        yield  # pragma: no cover

    inv = Invocation(None, "Svc", "op", {}, "client")
    with pytest.raises(SoapFault):
        drive(cross(bus(sim), None, inv, failing))
    (ev,) = rec.events("ws.request")
    assert ev.request_id is None
    assert (ev.get("side"), ev.get("fault")) == ("client", "Server")


def test_a_faulting_call_leaves_one_client_and_one_server_record():
    sim, server, client = make_env()

    def refusing(operation, params):
        raise SoapFault(faultcode="Server.Refused", faultstring="no")

    endpoint = server.deploy(echo_service(), refusing)
    rec = bus(sim).record("ws.request")
    ctx = RequestContext.create(sim, principal="user")
    with pytest.raises(SoapFault):
        sim.run(until=client.call(endpoint, "say", ctx=ctx, text="hi"))

    server_ev, client_ev = rec.events("ws.request")
    assert (server_ev.get("side"), client_ev.get("side")) == ("server",
                                                              "client")
    assert server_ev.request_id == client_ev.request_id == ctx.request_id
    assert server_ev.get("fault") == client_ev.get("fault") == "Server.Refused"
    assert server.service("Echo").faults == 1
