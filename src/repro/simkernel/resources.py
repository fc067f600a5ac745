"""The shared-resource primitive: :class:`Resource`.

A fixed number of slots, as in SimPy; processes queue for one.  Waiting
is FIFO, optionally priority-ordered, which keeps contention
deterministic.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.simkernel.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.kernel import Simulator

__all__ = ["Resource", "Request"]


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Fires (with value ``self``) once the slot is granted.  Use as a
    context manager or call :meth:`release` explicitly::

        req = resource.request()
        yield req
        ...
        resource.release(req)
    """

    __slots__ = ("resource", "priority", "key")

    def __init__(self, resource: "Resource", priority: int = 0):
        super().__init__(resource.sim, name=f"request:{resource.name}")
        self.resource = resource
        self.priority = priority
        self.key = (priority, next(resource._ticket))

    def release(self) -> None:
        """Give the slot back (or withdraw the queued request)."""
        self.resource.release(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class Resource:
    """*capacity* identical slots with a FIFO (priority-aware) wait queue."""

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.users: list[Request] = []
        self.queue: list[Request] = []
        self._ticket = itertools.count()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self, priority: int = 0) -> Request:
        """Claim a slot; the returned event fires when granted.

        Lower *priority* values are served first; ties are FIFO.
        """
        req = Request(self, priority=priority)
        self.queue.append(req)
        self.queue.sort(key=lambda r: r.key)
        self._grant()
        return req

    def release(self, request: Request) -> None:
        """Return a held slot, or withdraw a still-queued request."""
        if request in self.users:
            self.users.remove(request)
            self._grant()
        elif request in self.queue:
            self.queue.remove(request)
        # Releasing twice is tolerated: __exit__ after an explicit release
        # must not blow up.

    def _grant(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            req = self.queue.pop(0)
            self.users.append(req)
            req.succeed(req)
