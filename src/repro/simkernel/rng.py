"""Named, independently-seeded random streams.

Stochastic components (workload generators, jitter models...) must never
share one global RNG: adding a new random draw anywhere would perturb every
other component's sequence and break experiment reproducibility.  Instead
each component asks the registry for a stream by name; the stream's seed is
derived deterministically from the registry's master seed and the name.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = ["RngRegistry"]


class RngRegistry:
    """Factory for named :class:`random.Random` streams."""

    def __init__(self, master_seed: int = 0):
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for *name*, creating it on first use.

        The same (master_seed, name) pair always yields the same sequence,
        regardless of creation order or other streams' consumption.
        """
        rng = self._streams.get(name)
        if rng is None:
            rng = self._streams[name] = self.one_shot(name)
        return rng

    def one_shot(self, name: str) -> random.Random:
        """A fresh generator seeded for *name* that the registry does
        **not** keep: for names drawn from once and never asked for
        again (one per grid job, say), where :meth:`stream` would hold
        2.5 KB of Mersenne state per name for the simulator's life.
        Its draws are exactly the first draws of ``stream(name)``.
        """
        digest = hashlib.sha256(
            f"{self.master_seed}:{name}".encode()
        ).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def reseed(self, master_seed: int) -> None:
        """Reset the registry with a new master seed, dropping all streams."""
        self.master_seed = master_seed
        self._streams.clear()

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (f"<RngRegistry seed={self.master_seed} "
                f"streams={sorted(self._streams)}>")
