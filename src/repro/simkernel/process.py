"""Generator-based simulation processes.

A process wraps a Python generator.  Each ``yield`` must produce an
:class:`~repro.simkernel.events.Event`; the process sleeps until that
event fires and is resumed with the event's value (or has the event's
exception thrown into it at the yield point).

A :class:`Process` is itself an event that fires when the generator
returns, so processes can wait on each other::

    def parent(sim):
        child = sim.process(work(sim))
        result = yield child          # waits for work() to finish
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.errors import SimulationError
from repro.simkernel.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.kernel import Simulator

__all__ = ["Process", "Interrupt"]


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The interrupted process may catch it and continue; the event it was
    waiting on remains pending and its eventual value is discarded.
    """

    @property
    def cause(self) -> Any:
        """The cause passed to :meth:`Process.interrupt`."""
        return self.args[0] if self.args else None


class Process(Event):
    """An event representing a running generator-based process."""

    __slots__ = ("generator", "_target", "_interrupts")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"process() needs a generator, got {type(generator).__name__} "
                f"(did you forget a 'yield'?)"
            )
        super().__init__(sim, name=name or getattr(generator, "__name__", ""))
        self.generator = generator
        self._interrupts: list[Interrupt] = []
        #: The event this process currently waits on: itself until its
        #: start slot pops, None while the generator runs and after
        #: termination.
        self._target: Optional[Event] = self
        # Kick the process off from the event queue, so that creation
        # order, not construction stack depth, defines execution order.
        # Queued while still pending, the process holds a start slot
        # (see simkernel.events) at the (now, seq) position a separate
        # start event would take.
        sim._enqueue(self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point.

        Interrupting a dead process raises :class:`SimulationError`.
        Multiple interrupts queue up and are delivered one per resume.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        if self._target is None:
            raise SimulationError("cannot interrupt a process before it starts")
        self._interrupts.append(Interrupt(cause))
        # Deliver via a zero-delay event so interrupt() is safe to call
        # from any context (including the interrupted process's own
        # callbacks running this instant).
        wake = Event(self.sim, name=f"interrupt:{self.name}")
        wake.callbacks.append(self._deliver_interrupt)
        wake.succeed()

    # -- internal ----------------------------------------------------------

    def _deliver_interrupt(self, _event: Event) -> None:
        if not self._interrupts or not self.is_alive:
            return
        exc = self._interrupts.pop(0)
        # Detach from the event we were waiting on: its firing must no
        # longer resume us (we resume now, via the throw).
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._step(exc=exc)

    def _start(self, _slot: Event) -> None:
        """First turn: run the generator up to its first yield."""
        self._step()

    def _resume(self, event: Event) -> None:
        self._step(event=event)

    def _step(self, event: Optional[Event] = None,
              exc: Optional[BaseException] = None) -> None:
        """Advance the generator one yield."""
        self._target = None
        try:
            if exc is not None:
                target = self.generator.throw(exc)
            elif event is not None and not event._ok:
                event.defused()
                target = self.generator.throw(event._value)
            else:
                target = self.generator.send(event._value if event else None)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as error:
            self.fail(error)
            return

        if not isinstance(target, Event):
            error = SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                f"yield Event instances"
            )
            self.generator.close()
            self.fail(error)
            return
        if target.sim is not self.sim:
            self.generator.close()
            self.fail(SimulationError(
                f"process {self.name!r} yielded an event from a different simulator"
            ))
            return
        self._target = target
        target.add_callback(self._resume)
