"""Single-flight coalescing for the invocation hot path.

§VIII.D names the appliance's *per-request* work as the scaling limit:
N concurrent invocations of the same service each re-fetch the
executable from the database and each push the same payload through
the thin GridFTP uplink (their MyProxy logon is shared by the
replica's :class:`~repro.core.session.SessionCache`).  A
:class:`SingleFlight` group deduplicates that work *while it is in
flight*: the first caller of a key runs the real operation, every
concurrent caller of the same key waits on the leader's outcome and
shares its value.  Nothing is memoised — once a flight lands, the next
caller starts a fresh one — so this is pure concurrency coalescing,
orthogonal to the TTL caches in :mod:`repro.ws.cache`.

Determinism contract
--------------------
Disabled (the default, and the mode every golden figure runs in), ``do``
delegates straight to the factory generator: no events are created, no
bus traffic is emitted, and the simulation timeline is byte-identical
to a build without this module.  Enabled, the leader's path is likewise
unchanged; only joiners wait on a kernel event, which is created
deterministically in arrival order.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Hashable, Optional

from repro.simkernel.events import Event
from repro.telemetry.events import bus

__all__ = ["SingleFlight"]


class _Flight:
    """One in-flight operation; the event is created on the first join."""

    __slots__ = ("event", "joiners")

    def __init__(self) -> None:
        self.event: Optional[Event] = None
        self.joiners = 0


class SingleFlight:
    """In-flight call coalescing, keyed by hashable keys within groups.

    Usage (inside a simulation process)::

        result = yield from flights.do(("db-load", name), load_factory,
                                       group="db-load")

    *factory* must be a zero-argument callable returning a *generator*
    to delegate to (the operation itself).  The leader's exception, if
    any, is re-raised in every joiner.
    """

    def __init__(self, sim, enabled: bool = False):
        self.sim = sim
        self.enabled = enabled
        self._inflight: Dict[Hashable, _Flight] = {}
        #: Per-group counters: how many flights led, how many joined.
        self.flights: Dict[str, int] = {}
        self.joins: Dict[str, int] = {}
        self._bus = bus(sim)

    def inflight(self, key: Hashable) -> bool:
        """True while a flight for *key* is running (test hook)."""
        return key in self._inflight

    def do(self, key: Hashable, factory: Callable[[], Generator],
           group: str = "default") -> Generator[Event, None, Any]:
        """Run *factory* under single-flight semantics for *key*.

        A generator meant to be delegated to (``yield from``) inside a
        simulation process.  Returns the operation's value — the
        leader's own, or the shared one for coalesced callers.
        """
        if not self.enabled:
            return (yield from factory())

        flight = self._inflight.get(key)
        if flight is not None:
            # Coalesce: wait for the leader's outcome and share it.
            flight.joiners += 1
            self.joins[group] = self.joins.get(group, 0) + 1
            self._bus.emit("coalesce.join", layer="core", group=group,
                           key=str(key))
            if flight.event is None:
                flight.event = Event(self.sim, name=f"flight:{group}")
            value = yield flight.event  # raises the leader's exception
            return value

        flight = _Flight()
        self._inflight[key] = flight
        self.flights[group] = self.flights.get(group, 0) + 1
        self._bus.emit("coalesce.flight", layer="core", group=group,
                       key=str(key))
        try:
            value = yield from factory()
        except BaseException as exc:
            # The flight is over: later callers must retry for
            # themselves, and every joiner sees the leader's failure.
            self._inflight.pop(key, None)
            if flight.event is not None:
                flight.event.fail(exc)
                # Joiners handle (or propagate) the exception; the
                # kernel must not re-raise it as an unwaited failure.
                flight.event.defused()
            raise
        self._inflight.pop(key, None)
        if flight.event is not None:
            flight.event.succeed(value)
        return value

    def stats(self) -> Dict[str, Dict[str, int]]:
        """``{group: {"flights": n, "joins": m}}`` over all groups."""
        groups = sorted(set(self.flights) | set(self.joins))
        return {g: {"flights": self.flights.get(g, 0),
                    "joins": self.joins.get(g, 0)} for g in groups}

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        state = "on" if self.enabled else "off"
        return (f"<SingleFlight {state} inflight={len(self._inflight)} "
                f"groups={self.stats()}>")
