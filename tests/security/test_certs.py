"""Unit tests for keys, certificates and proxy chains."""

import random

import pytest

from repro.errors import CertificateInvalid, CredentialExpired
from repro.security import (
    CertificateAuthority, KeyPair, delegate_proxy, validate_chain,
)
from repro.security.proxy import MAX_PROXY_DEPTH, chain_wire_size


def identity(ca=None, subject="/O=Grid/CN=ada", t0=0.0, life=1000.0):
    ca = ca or CertificateAuthority("TestCA", random.Random(1))
    key, cert = ca.issue_identity(subject, t0, life, random.Random(2))
    return ca, key, cert


# ---------------------------------------------------------------- keys

def test_sign_verify_roundtrip():
    kp = KeyPair.generate(random.Random(0))
    sig = kp.sign(b"message")
    assert kp.public.verify(b"message", sig)
    assert not kp.public.verify(b"other", sig)
    other = KeyPair.generate(random.Random(1))
    assert not other.public.verify(b"message", sig)


def test_keypair_deterministic_from_rng():
    a = KeyPair.generate(random.Random(7))
    b = KeyPair.generate(random.Random(7))
    assert a.public == b.public


def test_bad_secret_length():
    with pytest.raises(ValueError):
        KeyPair(b"short")


# ---------------------------------------------------------------- certificates

def test_ca_issue_and_verify():
    ca, key, cert = identity()
    cert.verify_signature(ca.public_key)
    cert.check_validity(500.0)
    assert cert.subject == "/O=Grid/CN=ada"
    assert not cert.is_proxy


def test_tampered_cert_fails_verification():
    ca, key, cert = identity()
    cert.subject = "/O=Grid/CN=mallory"
    with pytest.raises(CertificateInvalid):
        cert.verify_signature(ca.public_key)


def _encode(cert):
    """The to-be-signed encoding, made from the fields as they are now."""
    return "|".join([
        cert.subject, cert.issuer, cert.public_key.key_id,
        f"{cert.not_before:.6f}", f"{cert.not_after:.6f}",
        str(int(cert.is_proxy)), str(cert.serial)]).encode()


def test_the_signed_encoding_is_made_once_and_sizes_nothing_new():
    ca, key, cert = identity()
    first = cert.tbs_bytes()
    assert first == _encode(cert)
    assert cert.tbs_bytes() is first
    cert.verify_signature(ca.public_key)
    assert cert.tbs_bytes() is first
    assert cert.wire_size() == len(_encode(cert)) + len(cert.signature) + 1200
    proxy_key, proxy = delegate_proxy(cert, key, 10.0, 100.0, serial=3)
    assert proxy.tbs_bytes() == _encode(proxy)
    assert proxy.wire_size() == (len(_encode(proxy)) + len(proxy.signature)
                                 + 1200)


@pytest.mark.parametrize("field, value", [
    ("subject", "/O=Grid/CN=mallory"), ("issuer", "OtherCA"),
    ("public_key", KeyPair.generate(random.Random(9)).public),
    ("not_before", 1.0), ("not_after", 2000.0), ("is_proxy", True),
    ("serial", 99)])
def test_assigning_a_signed_field_after_a_check_fails_the_next(field, value):
    ca, key, cert = identity()
    cert.verify_signature(ca.public_key)  # the encoding is kept now
    setattr(cert, field, value)
    assert cert.tbs_bytes() == _encode(cert)
    with pytest.raises(CertificateInvalid):
        cert.verify_signature(ca.public_key)


def test_validity_window():
    ca, key, cert = identity(t0=100.0, life=50.0)
    with pytest.raises(CredentialExpired, match="not yet valid"):
        cert.check_validity(99.0)
    cert.check_validity(125.0)
    with pytest.raises(CredentialExpired, match="expired"):
        cert.check_validity(151.0)


def test_empty_validity_rejected():
    ca = CertificateAuthority("CA")
    kp = KeyPair.generate(random.Random(0))
    with pytest.raises(CertificateInvalid):
        ca.issue("/CN=x", kp.public, 10.0, 0.0)


# ---------------------------------------------------------------- proxies

def test_delegate_and_validate_chain():
    ca, key, cert = identity()
    proxy_key, proxy = delegate_proxy(cert, key, not_before=10.0,
                                      lifetime=100.0, serial=1)
    assert proxy.is_proxy
    assert proxy.subject == cert.subject + "/CN=proxy"
    subject = validate_chain([proxy, cert], {ca.name: ca.public_key}, now=50.0)
    assert subject == cert.subject


def test_proxy_clipped_to_parent_lifetime():
    ca, key, cert = identity(life=100.0)
    _, proxy = delegate_proxy(cert, key, not_before=50.0, lifetime=1000.0)
    assert proxy.not_after == cert.not_after


def test_delegation_requires_matching_key():
    ca, key, cert = identity()
    wrong = KeyPair.generate(random.Random(9))
    with pytest.raises(CertificateInvalid, match="does not match"):
        delegate_proxy(cert, wrong, 0.0, 10.0)


def test_delegation_from_expired_parent():
    ca, key, cert = identity(life=100.0)
    with pytest.raises(CredentialExpired):
        delegate_proxy(cert, key, not_before=200.0, lifetime=10.0)


def test_multi_level_delegation():
    ca, key, cert = identity()
    k1, p1 = delegate_proxy(cert, key, 0.0, 500.0, serial=1)
    k2, p2 = delegate_proxy(p1, k1, 0.0, 400.0, serial=2)
    subject = validate_chain([p2, p1, cert], {ca.name: ca.public_key}, now=10.0)
    assert subject == cert.subject


def test_chain_rejects_untrusted_ca():
    ca, key, cert = identity()
    _, proxy = delegate_proxy(cert, key, 0.0, 100.0)
    with pytest.raises(CertificateInvalid, match="untrusted CA"):
        validate_chain([proxy, cert], {"OtherCA": ca.public_key}, now=10.0)


def test_chain_rejects_expired_proxy():
    ca, key, cert = identity(life=1000.0)
    _, proxy = delegate_proxy(cert, key, 0.0, 10.0)
    with pytest.raises(CredentialExpired):
        validate_chain([proxy, cert], {ca.name: ca.public_key}, now=50.0)


def test_chain_rejects_wrong_order():
    ca, key, cert = identity()
    _, proxy = delegate_proxy(cert, key, 0.0, 100.0)
    with pytest.raises(CertificateInvalid):
        validate_chain([cert, proxy], {ca.name: ca.public_key}, now=10.0)


def test_chain_rejects_forged_proxy():
    ca, key, cert = identity()
    mallory = KeyPair.generate(random.Random(66))
    # Forge a proxy signed by the wrong key.
    from repro.security.proxy import ProxyCertificate
    forged = ProxyCertificate(
        subject=cert.subject + "/CN=proxy", issuer=cert.subject,
        public_key=mallory.public, not_before=0.0, not_after=100.0,
        serial=1, is_proxy=True)
    forged.signature = mallory.sign(forged.tbs_bytes())
    with pytest.raises(CertificateInvalid, match="bad signature"):
        validate_chain([forged, cert], {ca.name: ca.public_key}, now=10.0)


def test_chain_depth_limit():
    ca, key, cert = identity(life=10000.0)
    chain = [cert]
    cur_key, cur_cert = key, cert
    for i in range(MAX_PROXY_DEPTH + 1):
        cur_key, cur_cert = delegate_proxy(cur_cert, cur_key, 0.0, 9000.0,
                                           serial=i)
        chain.insert(0, cur_cert)
    with pytest.raises(CertificateInvalid, match="depth"):
        validate_chain(chain, {ca.name: ca.public_key}, now=1.0)


def test_empty_chain_rejected():
    with pytest.raises(CertificateInvalid, match="empty"):
        validate_chain([], {}, now=0.0)


def test_chain_wire_size_positive():
    ca, key, cert = identity()
    _, proxy = delegate_proxy(cert, key, 0.0, 100.0)
    assert chain_wire_size([proxy, cert]) > 2000


def test_a_keypair_repr_names_its_public_key():
    kp = KeyPair.generate(random.Random(0))
    assert kp.public.key_id[:16] in repr(kp)
