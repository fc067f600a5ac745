"""Simulated X.509 certificates and certificate authorities."""

from __future__ import annotations

import random
from typing import Optional

from repro.errors import CertificateInvalid, CredentialExpired
from repro.security.keys import KeyPair, PublicKey

__all__ = ["Certificate", "CertificateAuthority"]

#: The fields :meth:`Certificate.tbs_bytes` encodes: assigning one drops
#: the kept encoding.
_TBS_FIELDS = frozenset(("subject", "issuer", "public_key", "not_before",
                         "not_after", "is_proxy", "serial"))


class Certificate:
    """A signed binding of a subject name to a public key.

    Validity is expressed in *simulated seconds* (the simulator clock is
    the only clock in this library).  The to-be-signed encoding is made
    once and kept until a field it covers is assigned.
    """

    __slots__ = ("subject", "issuer", "public_key", "not_before", "not_after",
                 "is_proxy", "serial", "signature", "_tbs")

    def __init__(self, subject: str, issuer: str, public_key: PublicKey,
                 not_before: float, not_after: float, serial: int,
                 is_proxy: bool = False, signature: bytes = b""):
        if not_after <= not_before:
            raise CertificateInvalid(
                f"certificate {subject!r}: empty validity interval")
        self.subject = subject
        self.issuer = issuer
        self.public_key = public_key
        self.not_before = not_before
        self.not_after = not_after
        self.is_proxy = is_proxy
        self.serial = serial
        self.signature = signature

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name in _TBS_FIELDS:
            object.__setattr__(self, "_tbs", None)

    def tbs_bytes(self) -> bytes:
        """The to-be-signed canonical encoding."""
        tbs = self._tbs
        if tbs is None:
            tbs = "|".join([
                self.subject, self.issuer, self.public_key.key_id,
                f"{self.not_before:.6f}", f"{self.not_after:.6f}",
                str(int(self.is_proxy)), str(self.serial),
            ]).encode()
            object.__setattr__(self, "_tbs", tbs)
        return tbs

    def check_validity(self, now: float) -> None:
        """Raise :class:`CredentialExpired` outside the validity window."""
        if now < self.not_before:
            raise CredentialExpired(
                f"{self.subject!r} not yet valid (now={now}, "
                f"not_before={self.not_before})")
        if now > self.not_after:
            raise CredentialExpired(
                f"{self.subject!r} expired (now={now}, "
                f"not_after={self.not_after})")

    def verify_signature(self, signer: PublicKey) -> None:
        """Raise :class:`CertificateInvalid` unless *signer* signed this."""
        if not signer.verify(self.tbs_bytes(), self.signature):
            raise CertificateInvalid(
                f"bad signature on certificate {self.subject!r}")

    def wire_size(self) -> int:
        """Approximate on-the-wire size in bytes (for traffic modelling).

        Real PEM certificates run 1-2 KB; we use the canonical encoding
        plus signature plus base64-ish framing overhead.
        """
        return len(self.tbs_bytes()) + len(self.signature) + 1200

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        kind = "proxy" if self.is_proxy else "cert"
        return f"<{kind} {self.subject!r} by {self.issuer!r}>"


class CertificateAuthority:
    """Issues end-entity certificates under its own name."""

    def __init__(self, name: str, rng: Optional[random.Random] = None):
        self.name = name
        self.keypair = KeyPair.generate(rng)
        self._serial = 0
        self._revoked: set[int] = set()

    @property
    def public_key(self) -> PublicKey:
        return self.keypair.public

    def issue(self, subject: str, public_key: PublicKey,
              not_before: float, lifetime: float) -> Certificate:
        """Issue a certificate for *subject* valid for *lifetime* seconds."""
        self._serial += 1
        cert = Certificate(
            subject=subject,
            issuer=self.name,
            public_key=public_key,
            not_before=not_before,
            not_after=not_before + lifetime,
            serial=self._serial,
            is_proxy=False,
        )
        cert.signature = self.keypair.sign(cert.tbs_bytes())
        return cert

    def issue_identity(self, subject: str, not_before: float,
                       lifetime: float,
                       rng: Optional[random.Random] = None):
        """Convenience: generate a keypair and certify it.

        Returns ``(keypair, certificate)`` — a complete grid identity.
        """
        keypair = KeyPair.generate(rng)
        cert = self.issue(subject, keypair.public, not_before, lifetime)
        return keypair, cert

    # -- revocation -----------------------------------------------------------

    def revoke(self, certificate_or_serial) -> None:
        """Revoke a certificate (or a raw serial number)."""
        serial = (certificate_or_serial.serial
                  if isinstance(certificate_or_serial, Certificate)
                  else int(certificate_or_serial))
        self._revoked.add(serial)

    def crl(self) -> frozenset:
        """The CA's current certificate revocation list (serials)."""
        return frozenset(self._revoked)

    def is_revoked(self, certificate: Certificate) -> bool:
        return (certificate.issuer == self.name
                and certificate.serial in self._revoked)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<CertificateAuthority {self.name!r}>"
