"""The watchdog from onServe's "tools" package.

"The 'tools' package contains tools like a watchdog class, that is used
to react correctly in some situations where a problem may occur. (For
example when a process takes too long to complete.)" (paper §VI).

Two tools live here, each a generator its caller drives with
``yield from``: the deadline is a bound the wait checks, not a process
racing it, so a crash of the caller's process unwinds the wait too.

* :func:`poll_until` — the tentative-polling loop (§VIII.B workaround):
  run a poll action every ``interval`` until a predicate accepts its
  result or the deadline passes.
* :func:`await_waiter` — the same deadline discipline for a completion
  source that hands out a waiter event instead of being polled: a
  :class:`~repro.grid.notify.NotifyQueue` subscription (the fallback
  ladder's upper rung: notify, else per-job ``poll_until``).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Tuple

from repro.errors import WatchdogTimeout
from repro.simkernel.events import Event
from repro.simkernel.kernel import Simulator

__all__ = ["await_waiter", "poll_until"]


def _abandon(waiter: Event) -> None:
    """Defuse an abandoned waiter (or a wait on one) so nothing can
    cross wires later.

    A waiter its owner stopped caring about (deadline passed) may still
    be triggered by machinery that held a reference to it — a late
    delivery.  Marking any eventual failure defused keeps the kernel
    from re-raising it at end of run, and the owner never confuses it
    with the *fresh* waiter a re-registration of the same key creates.
    """
    waiter.add_callback(lambda ev: ev.defused() if not ev._ok else None)


def poll_until(sim: Simulator,
               poll_factory: Callable[[], Generator],
               accept: Callable[[Any], bool],
               interval: float,
               timeout: float
               ) -> Generator[Event, None, Tuple[Any, int]]:
    """Poll on a fixed interval until *accept* likes a result.

    Each round drives ``poll_factory()`` (a generator) and passes its
    value to *accept*; between rounds it sleeps *interval*.  Raises
    :class:`WatchdogTimeout` when *timeout* elapses first.

    The value is ``(result, polls)``.
    """
    if interval <= 0:
        raise ValueError("poll interval must be positive")
    deadline = sim.now + timeout
    polls = 0
    while True:
        result = yield from poll_factory()
        polls += 1
        if accept(result):
            return result, polls
        if sim.now >= deadline:
            raise WatchdogTimeout(
                f"tentative polling gave up after {polls} polls "
                f"({timeout:.0f}s)")
        yield sim.timeout(interval)


def await_waiter(sim: Simulator, register: Callable[[], Event],
                 cancel: Callable[[Event], None], timeout: float,
                 what: str) -> Generator[Event, None, Any]:
    """Park on a waiter event under a deadline.

    ``register()`` hands out the waiter — a
    :class:`~repro.grid.notify.NotifyQueue` subscription.  The value is
    the waiter's value; a failure propagated through the waiter is
    re-raised as-is.  If *timeout* elapses first,
    :class:`WatchdogTimeout` is raised, exactly like :func:`poll_until`.
    However the wait ends — an interrupt of the caller included —
    ``cancel(waiter)`` detaches the waiter (the source must not keep
    working for a waiter that gave up), the waiter is defused and the
    deadline leaves the event queue.
    """
    if timeout <= 0:
        raise ValueError("await_waiter timeout must be positive")
    waiter = register()
    deadline = sim.timeout(timeout)
    wait = sim.any_of([waiter, deadline])
    try:
        yield wait
        if waiter.triggered:
            if waiter.ok:
                return waiter.value
            raise waiter.value
        raise WatchdogTimeout(f"{what} gave up ({timeout:.0f}s)")
    finally:
        sim.cancel(deadline)
        cancel(waiter)
        # An unwound wait leaves its condition hooked on the waiter and
        # the deadline: unhook it, and a late failure must not surface
        # through either.
        wait.detach()
        _abandon(waiter)
        _abandon(wait)
