"""Concurrent SOAP invocations share the server host's resources."""

import pytest

from repro.hardware import Host, Network
from repro.hardware.host import HostSpec
from repro.simkernel import Simulator
from repro.units import Mbps
from repro.ws import (
    OperationSpec, ParameterSpec, ServiceDescription, SoapFabric,
    SoapServer, WsClient,
)


def env(cores=1):
    sim = Simulator()
    net = Network(sim)
    server_host = Host(sim, "s", net, HostSpec(cores=cores))
    fabric = SoapFabric()
    server = SoapServer(server_host, fabric)
    clients = []
    for i in range(3):
        h = Host(sim, f"c{i}", net, HostSpec())
        net.connect("s", f"c{i}", bandwidth=Mbps(100))
        clients.append(WsClient(h, fabric))
    return sim, server, clients


def test_cpu_bound_handlers_contend():
    sim, server, clients = env(cores=1)

    def burn(operation, params):
        yield server.host.compute(10.0)
        return "done"

    endpoint = server.deploy(
        ServiceDescription("Burn", [OperationSpec("go")]), burn)
    procs = [sim.process(c.call(endpoint, "go")) for c in clients[:2]]
    sim.run(until=sim.all_of(procs))
    # Two 10 s CPU-bound handlers on one core: ~20 s, not ~10.
    assert sim.now > 19.0


def test_parallel_handlers_on_multicore():
    sim, server, clients = env(cores=2)

    def burn(operation, params):
        yield server.host.compute(10.0)
        return "done"

    endpoint = server.deploy(
        ServiceDescription("Burn", [OperationSpec("go")]), burn)
    procs = [sim.process(c.call(endpoint, "go")) for c in clients[:2]]
    sim.run(until=sim.all_of(procs))
    assert sim.now < 12.0  # both handlers fit the two cores


def test_interleaved_requests_all_answered():
    sim, server, clients = env(cores=2)
    answered = []

    def echo(operation, params):
        yield server.sim.timeout(params["delay"])
        return params["delay"]

    endpoint = server.deploy(
        ServiceDescription("E", [OperationSpec(
            "go", [ParameterSpec("delay", "xsd:int")], "xsd:int")]), echo)

    def caller(client, delay):
        result = yield from client.call(endpoint, "go", delay=delay)
        answered.append(result)

    for client, delay in zip(clients, (30, 10, 20)):
        sim.process(caller(client, delay))
    sim.run()
    assert sorted(answered) == [10, 20, 30]
    assert server.requests_served == 3
