"""The :class:`Simulator`: clock, event queue and run loop."""

from __future__ import annotations

import heapq
from typing import Any, Generator, Optional

from repro.errors import CausalityError, SimulationError
from repro.simkernel.events import _PENDING, AllOf, AnyOf, Event, Timeout
from repro.simkernel.process import Process
from repro.simkernel.rng import RngRegistry

__all__ = ["Simulator"]


def _defuse_failure(event: Event) -> None:
    """``run(until=event)`` re-raises the failure itself."""
    if not event._ok:
        event._defused = True


class Simulator:
    """A deterministic discrete-event simulator.

    The simulator owns the clock (:attr:`now`, in simulated seconds), a
    priority queue of triggered events, and a registry of named random
    streams (:attr:`rng`) so stochastic components are independently
    seedable.

    Events scheduled for the same instant are processed in the order they
    were enqueued (FIFO tie-break via a monotone sequence number), which
    keeps runs fully reproducible.
    """

    def __init__(self, seed: int = 0, trace: bool = False):
        #: Current simulated time, in seconds.
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        #: Named deterministic RNG streams.
        self.rng = RngRegistry(seed)
        #: Count of events processed so far (useful in benchmarks).
        self.events_processed = 0
        self._trace = trace
        self._trace_log: list[tuple[float, str]] = []
        #: Optional wall-clock profiler (telemetry.profiler) — when set,
        #: callback execution is timed and attributed per process.  A
        #: ``None`` check per step is the entire cost when detached.
        self._profiler = None

    # -- event construction -------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """Create an event that fires after *delay* simulated seconds."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new simulation process driving *generator*."""
        return Process(self, generator, name=name)

    def any_of(self, events) -> AnyOf:
        """Composite event firing when any of *events* fires."""
        return AnyOf(self, events)

    def all_of(self, events) -> AllOf:
        """Composite event firing when all of *events* have fired."""
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------

    def _enqueue(self, event: Event, delay: float = 0.0
                 ) -> tuple[float, int, Event]:
        """Queue *event* for dispatch *delay* seconds from now; returns
        its queue entry.

        A triggered event has its callbacks run when it pops; a pending
        one holds a start slot and gets ``event._start(event)`` instead.
        """
        if delay < 0:
            raise CausalityError(f"cannot schedule event {delay} s in the past")
        self._seq += 1
        entry = (self.now + delay, self._seq, event)
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, timeout: Timeout) -> None:
        """Take a queued *timeout* off the queue: it will never fire.

        For a deadline whose wait ended first — left queued, a six-hour
        deadline would hold its slot that long.  The queue orders by
        (time, sequence number), so dropping one entry reorders nothing
        that remains.  A timeout already dispatched or cancelled is left
        as it is.
        """
        heap = self._heap
        when, seq = timeout._slot
        try:
            at = heap.index((when, seq, timeout))
        except ValueError:  # dispatched or cancelled before
            return
        last = heap.pop()
        if at < len(heap):
            # The last entry fills the hole and sifts to its place: two
            # O(log n) walks, where heapify() would redo all n.
            heap[at] = last
            heapq._siftup(heap, at)
            heapq._siftdown(heap, 0, at)

    # -- run loop -------------------------------------------------------------

    def peek(self) -> float:
        """Time of the next queued event, or ``inf`` if the queue is empty."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if not self._heap:
            raise SimulationError("step() on an empty event queue")
        when, _, event = heapq.heappop(self._heap)
        self.now = when
        self.events_processed += 1
        if self._trace:
            self._trace_log.append((when, repr(event)))
        profiler = self._profiler
        if event._value is _PENDING:
            # A start slot is a turn, not an outcome: a process that
            # dies on its first turn fails through its own event.  The
            # turn is still charged to the event's profiler bucket.
            if profiler is None:
                event._start(event)
            else:
                profiler.run_callbacks(event, (event._start,))
            return
        callbacks, event.callbacks = event.callbacks, None
        if profiler is None:
            for cb in callbacks:
                cb(event)
        else:
            profiler.run_callbacks(event, callbacks)
        if not event._ok and not event._defused:
            # Nobody handled the failure: surface it instead of silently
            # dropping it, mirroring SimPy's behaviour.
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until no events remain.
            a number — run until the clock reaches that time.
            an :class:`Event` — run until that event is processed and
            return its value (raising if it failed).
        """
        if until is None:
            self._run_to(float("inf"), None)
            return None

        if isinstance(until, Event):
            stop = until
            if stop.callbacks is not None:  # not processed yet
                stop.callbacks.append(_defuse_failure)
                self._run_to(float("inf"), stop)
                if stop.callbacks is not None:
                    raise SimulationError(
                        "run(until=event): queue exhausted before event fired"
                    )
            if not stop._ok:
                raise stop._value
            return stop._value

        horizon = float(until)
        if horizon < self.now:
            raise CausalityError(f"cannot run until {horizon} < now={self.now}")
        self._run_to(horizon, None)
        self.now = horizon
        return None

    def _run_to(self, horizon: float, stop: Optional[Event]) -> None:
        """Dispatch events up to *horizon*, or until *stop* is processed.

        The body is :meth:`step` inlined: one method call and a handful
        of attribute loads per event are a measurable share of a run.
        """
        heap = self._heap
        pop = heapq.heappop
        traced = self._trace
        while heap and heap[0][0] <= horizon:
            when, _, event = pop(heap)
            self.now = when
            self.events_processed += 1
            if traced:
                self._trace_log.append((when, repr(event)))
            profiler = self._profiler
            if event._value is _PENDING:
                if profiler is None:
                    event._start(event)
                else:
                    profiler.run_callbacks(event, (event._start,))
                continue
            callbacks, event.callbacks = event.callbacks, None
            if profiler is None:
                for cb in callbacks:
                    cb(event)
            else:
                profiler.run_callbacks(event, callbacks)
            if not event._ok and not event._defused:
                raise event._value
            if event is stop:
                return

    # -- introspection ---------------------------------------------------------

    @property
    def queued_events(self) -> int:
        """Number of events currently waiting on the queue."""
        return len(self._heap)

    def trace(self) -> list[tuple[float, str]]:
        """Return the (time, event) trace collected when trace=True."""
        return list(self._trace_log)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<Simulator t={self.now:.6g} queued={len(self._heap)}>"
