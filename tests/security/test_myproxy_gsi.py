"""Unit tests for the MyProxy server and GSI acceptor."""

import random

import pytest

from repro.errors import AuthenticationFailed, CredentialExpired
from repro.hardware import Host, Network
from repro.hardware.host import HostSpec
from repro.security import CertificateAuthority, MyProxyServer, validate_chain
from repro.security.gsi import GsiAcceptor
from repro.simkernel import Simulator
from repro.units import Mbps


def env():
    sim = Simulator(seed=3)
    net = Network(sim)
    server_host = Host(sim, "mp", net, HostSpec())
    client_host = Host(sim, "client", net, HostSpec())
    net.connect("mp", "client", bandwidth=Mbps(100), latency=0.01)
    ca = CertificateAuthority("GridCA", random.Random(1))
    key, cert = ca.issue_identity("/O=Grid/CN=ada", 0.0, 10000.0,
                                  random.Random(2))
    server = MyProxyServer(server_host)
    server.store("ada", "s3cret", key, cert)
    return sim, server, client_host, ca, cert


def test_logon_returns_valid_proxy():
    sim, server, client, ca, cert = env()

    def flow():
        result = yield server.logon(client, "ada", "s3cret", lifetime=3600.0)
        return result

    proxy_key, proxy, ee = sim.run(until=sim.process(flow()))
    assert proxy.is_proxy
    subject = validate_chain([proxy, ee], {ca.name: ca.public_key},
                             now=sim.now)
    assert subject == "/O=Grid/CN=ada"
    assert server.logons_served == 1
    assert sim.now > 0  # the exchange took simulated time


def test_logon_generates_network_traffic():
    sim, server, client, ca, cert = env()

    def flow():
        yield server.logon(client, "ada", "s3cret", lifetime=3600.0)

    sim.run(until=sim.process(flow()))
    # Request out, certificate-bearing answer in.
    assert client.net_bytes_out() > 1000
    assert client.net_bytes_in() > 2000


def test_logon_bad_passphrase():
    sim, server, client, ca, cert = env()

    def flow():
        yield server.logon(client, "ada", "wrong", lifetime=3600.0)

    with pytest.raises(AuthenticationFailed):
        sim.run(until=sim.process(flow()))
    assert server.logons_rejected == 1


def test_logon_unknown_user():
    sim, server, client, ca, cert = env()

    def flow():
        yield server.logon(client, "bob", "x", lifetime=3600.0)

    with pytest.raises(AuthenticationFailed):
        sim.run(until=sim.process(flow()))


def test_logon_expired_credential():
    sim, server, client, ca, cert = env()

    def flow():
        yield sim.timeout(20000.0)  # past the credential's 10000 s lifetime
        yield server.logon(client, "ada", "s3cret", lifetime=3600.0)

    with pytest.raises(CredentialExpired):
        sim.run(until=sim.process(flow()))


def test_lifetime_capped_by_policy():
    sim, server, client, ca, cert = env()
    server._store["ada"].max_delegation_lifetime = 100.0

    def flow():
        _, proxy, _ = yield server.logon(client, "ada", "s3cret",
                                         lifetime=9999.0)
        return proxy

    proxy = sim.run(until=sim.process(flow()))
    assert proxy.not_after - proxy.not_before <= 100.0 + 1e-9


def test_credential_management():
    sim, server, client, ca, cert = env()
    assert server.has_credential("ada")
    assert not server.has_credential("bob")


# ---------------------------------------------------------------- GSI

def test_gsi_accept_and_gridmap():
    sim, server, client, ca, cert = env()

    def flow():
        result = yield server.logon(client, "ada", "s3cret", lifetime=3600.0)
        return result

    proxy_key, proxy, ee = sim.run(until=sim.process(flow()))
    acceptor = GsiAcceptor("gatekeeper", trusted_cas=[ca])
    ctx = acceptor.accept([proxy, ee], now=sim.now)
    assert ctx.subject == "/O=Grid/CN=ada"
    assert acceptor.handshakes_ok == 1

    strict = GsiAcceptor("strict", trusted_cas=[ca], gridmap=set())
    with pytest.raises(AuthenticationFailed, match="gridmap"):
        strict.accept([proxy, ee], now=sim.now)
    strict.authorize("/O=Grid/CN=ada")
    assert strict.accept([proxy, ee], now=sim.now).subject == "/O=Grid/CN=ada"


def test_gsi_untrusted_ca_counted():
    sim, server, client, ca, cert = env()

    def flow():
        return (yield server.logon(client, "ada", "s3cret", lifetime=100.0))

    proxy_key, proxy, ee = sim.run(until=sim.process(flow()))
    acceptor = GsiAcceptor("gk", trusted_cas=[])
    with pytest.raises(Exception):
        acceptor.accept([proxy, ee], now=sim.now)
    assert acceptor.handshakes_failed == 1


def test_handshake_bytes_scale_with_chain():
    sim, server, client, ca, cert = env()

    def flow():
        return (yield server.logon(client, "ada", "s3cret", lifetime=100.0))

    proxy_key, proxy, ee = sim.run(until=sim.process(flow()))
    one = GsiAcceptor.handshake_bytes([ee])
    two = GsiAcceptor.handshake_bytes([proxy, ee])
    assert two > one > 1024
