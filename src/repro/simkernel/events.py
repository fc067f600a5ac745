"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence in simulated time.  It moves
through three states:

* *pending* — created, not yet triggered;
* *triggered* — given a value (or an exception) and placed on the
  simulator's event queue;
* *processed* — its callbacks have run.

Processes wait on events by ``yield``-ing them; the kernel wires the
process's resumption in as a callback.

An event that puts *itself* on the queue while still pending holds a
**start slot**: when the slot pops, the kernel calls the event's
``_start(event)`` instead of running its callbacks, and the event stays
pending.  That is how a process takes its first turn, and how a
hardware operation takes the queue hop before its flow joins a server,
without a separate kick-off event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.kernel import Simulator

__all__ = ["Event", "Timeout", "ConditionEvent", "AnyOf", "AllOf"]

#: Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    sim:
        The owning simulator.
    name:
        Optional label used in ``repr`` and error messages.
    """

    __slots__ = ("sim", "name", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        #: Callbacks invoked (in order) when the event is processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        # When an event fails and nobody waits on it, the kernel re-raises
        # the exception at the end of the run unless the event was defused.
        self._defused = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is queued for processing."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        if not self.triggered:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance when it failed)."""
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._enqueue(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Any process waiting on the event will have *exception* thrown into
        it at its yield point.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.sim._enqueue(self)
        return self

    def defused(self) -> None:
        """Mark a failed event as handled so the kernel won't re-raise it."""
        self._defused = True

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register *fn* to run when the event is processed.

        If the event has already been processed the callback runs
        immediately (this keeps late waiters correct).
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that fires automatically after a fixed delay.

    :meth:`Simulator.cancel` takes one off the queue before it fires.
    """

    __slots__ = ("delay", "_slot")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None,
                 name: str = ""):
        if delay < 0:
            from repro.errors import CausalityError
            raise CausalityError(f"negative timeout delay {delay!r}")
        super().__init__(sim, name=name)
        self.delay = delay
        self._ok = True
        self._value = value
        #: Its queue slot ``(time, seq)``, for :meth:`Simulator.cancel`
        #: to find.  Not the queue entry itself: that holds the timeout,
        #: and a timeout holding it back would be a reference cycle
        #: only the cyclic collector frees.
        self._slot = sim._enqueue(self, delay=delay)[:2]


class ConditionEvent(Event):
    """Base for composite events over a set of child events."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events: tuple[Event, ...] = tuple(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("cannot mix events from different simulators")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed(self._collect())
        else:
            for ev in self.events:
                ev.add_callback(self._check)

    def _collect(self) -> dict[Event, Any]:
        """Outcome dictionary: every processed child event -> its value.

        A child that is merely triggered (a ``Timeout`` holds its value
        from construction) has not happened yet and is left out; the
        child being dispatched right now already counts as processed.
        """
        return {ev: ev._value for ev in self.events if ev.callbacks is None}

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _fire(self, event: Event) -> None:
        """Take *event*'s failure or succeed, then unhook from every
        child ``Timeout`` still pending.

        A fired condition has nothing left to hear from a timer, but the
        timer stays queued until its instant — a six-hour deadline would
        keep the condition, and all that hangs off it, alive that long.
        A ``Timeout`` cannot fail, so no defuse is lost; every other
        pending child keeps the hook that defuses its later failure.
        """
        if event._ok:
            self.succeed(self._collect())
        else:
            event.defused()
            self.fail(event._value)
        self.detach(Timeout)

    def detach(self, only: type = Event) -> None:
        """Unhook from every child (of type *only*) still pending.

        A wait abandoned before it fired (its process interrupted) would
        otherwise stay hooked on its children, and they on it: a cycle
        only the cyclic collector frees.
        """
        check = self._check
        for ev in self.events:
            callbacks = ev.callbacks
            if callbacks and isinstance(ev, only):
                callbacks[:] = [cb for cb in callbacks if cb != check]


class AnyOf(ConditionEvent):
    """Fires as soon as any child event fires.

    The value is a dict mapping the (so far) finished events to their
    values.  A failing child fails the condition.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event.defused()
            return
        self._fire(event)


class AllOf(ConditionEvent):
    """Fires once every child event has fired.

    The value is a dict mapping all events to their values.  The first
    failing child fails the condition immediately.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event.defused()
            return
        if event._ok:
            self._remaining -= 1
            if self._remaining:
                return
        self._fire(event)
