"""Simulated keypairs and signatures.

A :class:`KeyPair` signs data with an HMAC over its private secret; the
derived :class:`PublicKey` can verify those signatures (it carries the
verifying closure — see the package docstring for why this is an
acceptable simulation).  Key material is deterministic given an RNG
stream, so experiments are reproducible.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from typing import Optional

__all__ = ["KeyPair", "PublicKey"]

_KEY_BYTES = 32


class PublicKey:
    """The public half: an identifier plus signature verification."""

    __slots__ = ("key_id", "_secret")

    def __init__(self, key_id: str, secret: bytes):
        self.key_id = key_id
        self._secret = secret

    def verify(self, data: bytes, signature: bytes) -> bool:
        """True iff *signature* was produced by the matching private key."""
        expected = hmac.new(self._secret, data, hashlib.sha256).digest()
        return hmac.compare_digest(expected, signature)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PublicKey) and other.key_id == self.key_id

    def __hash__(self) -> int:
        return hash(self.key_id)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<PublicKey {self.key_id[:16]}>"


class KeyPair:
    """A private key with its derived public key."""

    __slots__ = ("_secret", "public")

    def __init__(self, secret: bytes):
        if len(secret) != _KEY_BYTES:
            raise ValueError(f"key secret must be {_KEY_BYTES} bytes")
        self._secret = secret
        key_id = hashlib.sha256(b"public:" + secret).hexdigest()
        self.public = PublicKey(key_id, secret)

    @classmethod
    def generate(cls, rng: Optional[random.Random] = None) -> "KeyPair":
        """Create a keypair from *rng* (deterministic if the stream is)."""
        rng = rng or random.Random()
        secret = bytes(rng.getrandbits(8) for _ in range(_KEY_BYTES))
        return cls(secret)

    def sign(self, data: bytes) -> bytes:
        """Sign *data* (32-byte MAC)."""
        return hmac.new(self._secret, data, hashlib.sha256).digest()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<KeyPair {self.public.key_id[:16]}>"
