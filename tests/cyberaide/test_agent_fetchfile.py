"""Tests for the agent's fetchFile operation (arbitrary grid files)."""

import pytest

from repro.cyberaide import AgentConfig, CyberaideAgent
from repro.errors import SoapFault
from repro.grid import build_testbed
from repro.units import KB, Mbps
from repro.workloads import make_payload
from repro.ws import SoapFabric, SoapServer, WsClient, generate_stub


def env():
    tb = build_testbed(n_sites=1, nodes_per_site=1, cores_per_node=2,
                       appliance_uplink=Mbps(10))
    tb.new_grid_identity("ada", "pw")
    fabric = SoapFabric()
    server = SoapServer(tb.appliance_host, fabric)
    agent = CyberaideAgent(tb.appliance_host, tb, AgentConfig())
    server.deploy(agent.service_description(), agent.handler)
    stub = generate_stub(server.wsdl(agent.SERVICE_NAME))(
        WsClient(tb.appliance_host, fabric))
    return tb, stub


def test_fetchfile_roundtrip():
    tb, stub = env()
    payload = make_payload("echo", size=int(KB(8)))

    def flow():
        session = yield from stub.authenticate(username="ada", passphrase="pw")
        yield from stub.uploadExecutable(session=session, site="ncsa",
                                         path="/data/f.bin", data=payload)
        back = yield from stub.fetchFile(session=session, site="ncsa",
                                         path="/data/f.bin")
        return back

    assert tb.sim.run(until=tb.sim.process(flow())) == payload


def test_fetchfile_missing_faults():
    tb, stub = env()

    def flow():
        session = yield from stub.authenticate(username="ada", passphrase="pw")
        yield from stub.fetchFile(session=session, site="ncsa", path="/ghost")

    with pytest.raises(SoapFault, match="no such file"):
        tb.sim.run(until=tb.sim.process(flow()))
