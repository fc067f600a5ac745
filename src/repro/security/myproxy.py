"""MyProxy: an online credential repository.

Users store a long-lived credential (keypair + certificate) under a
username/passphrase; services later *logon* to retrieve a short-lived
delegated proxy to act on the user's behalf.  This is exactly the role
MyProxy plays for the Cyberaide agent in the paper's invocation workflow
(§VII.B "Authentication").

The server runs on a simulated host: each logon exchanges
request/response messages over the network and burns a little CPU, which
is what makes the credential exchange visible in Figure 6's network trace
("a relatively large part of the measured traffic is generated by the
security credential request and the associated answer").
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Dict, Generator, Tuple

from repro.errors import AuthenticationFailed, CredentialExpired
from repro.hardware.host import Host
from repro.security.keys import KeyPair
from repro.security.proxy import ProxyCertificate, delegate_proxy
from repro.security.x509 import Certificate
from repro.simkernel.events import Event
from repro.simkernel.process import Process
from repro.units import KB

__all__ = ["MyProxyServer", "StoredCredential"]


class StoredCredential:
    """A credential deposited in the repository."""

    __slots__ = ("username", "passphrase_hash", "keypair", "certificate",
                 "max_delegation_lifetime")

    def __init__(self, username: str, passphrase: str, keypair: KeyPair,
                 certificate: Certificate,
                 max_delegation_lifetime: float = 12 * 3600.0):
        self.username = username
        self.passphrase_hash = _hash_passphrase(passphrase)
        self.keypair = keypair
        self.certificate = certificate
        self.max_delegation_lifetime = max_delegation_lifetime


class MyProxyServer:
    """The credential repository service, hosted on a simulated machine."""

    #: Bytes of request traffic per logon (command + authentication).
    LOGON_REQUEST_BYTES = KB(4)
    #: CPU seconds to validate a passphrase and perform a delegation.
    LOGON_CPU = 0.08

    def __init__(self, host: Host, name: str = "myproxy"):
        self.host = host
        self.sim = host.sim
        self.name = name
        self._store: Dict[str, StoredCredential] = {}
        self._serial = itertools.count(1)
        #: Counters for experiments.
        self.logons_served = 0
        self.logons_rejected = 0

    # -- management (instant; an admin operation, not a measured path) --------

    def store(self, username: str, passphrase: str, keypair: KeyPair,
              certificate: Certificate,
              max_delegation_lifetime: float = 12 * 3600.0) -> None:
        """Deposit a credential (overwrites an existing one)."""
        self._store[username] = StoredCredential(
            username, passphrase, keypair, certificate,
            max_delegation_lifetime)

    def has_credential(self, username: str) -> bool:
        return username in self._store

    # -- the measured path ---------------------------------------------------

    def logon(self, client: Host, username: str, passphrase: str,
              lifetime: float) -> Process:
        """Retrieve a delegated proxy (a simulation process).

        The process-event's value is ``(proxy_keypair, proxy_certificate,
        end_entity_certificate)``.  Failures raise
        :class:`~repro.errors.AuthenticationFailed` or
        :class:`~repro.errors.CredentialExpired` inside the calling
        process.
        """

        def op() -> Generator[Event, None, Tuple[KeyPair, ProxyCertificate,
                                                 Certificate]]:
            # Request travels to the repository host.
            yield client.send(self.host, self.LOGON_REQUEST_BYTES,
                              label="myproxy-req")
            yield self.host.compute(self.LOGON_CPU)
            cred = self._store.get(username)
            if cred is None or cred.passphrase_hash != _hash_passphrase(passphrase):
                self.logons_rejected += 1
                # A rejection is a small answer.
                yield self.host.send(client, KB(1), label="myproxy-reject")
                raise AuthenticationFailed(
                    f"myproxy: bad username or passphrase for {username!r}")
            now = self.sim.now
            try:
                cred.certificate.check_validity(now)
            except CredentialExpired:
                self.logons_rejected += 1
                yield self.host.send(client, KB(1), label="myproxy-reject")
                raise
            granted = min(lifetime, cred.max_delegation_lifetime)
            proxy_key, proxy_cert = delegate_proxy(
                cred.certificate, cred.keypair,
                not_before=now, lifetime=granted,
                serial=next(self._serial))
            # The answer carries the proxy chain (certificates are KBs).
            answer = proxy_cert.wire_size() + cred.certificate.wire_size()
            yield self.host.send(client, answer, label="myproxy-answer")
            self.logons_served += 1
            return proxy_key, proxy_cert, cred.certificate

        return self.sim.process(op(), name=f"myproxy-logon:{username}")


def _hash_passphrase(passphrase: str) -> bytes:
    return hashlib.sha256(b"myproxy:" + passphrase.encode()).digest()
