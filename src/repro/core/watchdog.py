"""The watchdog from onServe's "tools" package.

"The 'tools' package contains tools like a watchdog class, that is used
to react correctly in some situations where a problem may occur. (For
example when a process takes too long to complete.)" (paper §VI).

Three tools live here:

* :meth:`Watchdog.guard` — run a process under a deadline; if it is
  still alive when the deadline passes, interrupt it and raise
  :class:`~repro.errors.WatchdogTimeout` in the waiter.
* :func:`poll_until` — the tentative-polling loop (§VIII.B workaround):
  run a poll action every ``interval`` until a predicate accepts its
  result or the deadline passes.
* :func:`await_waiter` — the same deadline discipline for completion
  sources that hand out a waiter event instead of being polled: a
  :class:`~repro.grid.poller.PollMux` registration or a
  :class:`~repro.grid.notify.NotifyQueue` subscription (the fallback
  ladder's upper rungs: notify → PollMux → ``poll_until``).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Tuple

from repro.errors import WatchdogTimeout
from repro.simkernel.events import Event
from repro.simkernel.kernel import Simulator
from repro.simkernel.process import Interrupt, Process

__all__ = ["Watchdog", "await_waiter", "poll_until"]


def _abandon(waiter: Event) -> None:
    """Defuse an abandoned waiter so nothing can cross wires later.

    A waiter its owner stopped caring about (deadline passed) may still
    be triggered by machinery that held a reference to it — a batch
    failure racing the timeout, a late delivery.  Marking any eventual
    failure defused keeps the kernel from re-raising it at end of run,
    and the owner never confuses it with the *fresh* waiter a
    re-registration of the same key creates.
    """
    waiter.add_callback(lambda ev: ev.defused() if not ev._ok else None)


class Watchdog:
    """Deadline enforcement for simulation processes."""

    def __init__(self, sim: Simulator, timeout: float):
        if timeout <= 0:
            raise ValueError("watchdog timeout must be positive")
        self.sim = sim
        self.timeout = timeout
        self.timeouts_fired = 0

    def guard(self, victim: Process, label: str = "") -> Process:
        """Wait on *victim* with a deadline.

        Returns a process whose value is the victim's value; raises
        :class:`WatchdogTimeout` (after interrupting the victim) if the
        deadline passes first.  A victim that dies of a *genuine*
        exception — before, at, or while handling the deadline — has
        that exception re-raised to the waiter; only the termination the
        watchdog itself caused (the :class:`Interrupt`) is absorbed.
        """

        def op() -> Generator[Event, None, Any]:
            deadline = self.sim.timeout(self.timeout)
            yield self.sim.any_of([victim, deadline])
            if victim.triggered:
                # Finished no later than the deadline's own instant.
                # Completed work beats a photo-finish timeout — and a
                # genuine error racing the deadline (any_of defuses it)
                # is re-raised, never masked as a mere timeout.
                if victim.ok:
                    return victim.value
                raise victim.value
            self.timeouts_fired += 1
            victim.interrupt("watchdog deadline")
            try:
                # Wait for the victim to actually terminate: its real
                # errors must reach the waiter, not be swallowed.
                return (yield victim)
            except Interrupt:
                pass  # our own interrupt ran its course
            raise WatchdogTimeout(
                f"{label or 'operation'} exceeded {self.timeout:.0f}s")

        return self.sim.process(op(), name=f"watchdog:{label}")


def poll_until(sim: Simulator,
               poll_factory: Callable[[], Process],
               accept: Callable[[Any], bool],
               interval: float,
               timeout: float,
               on_result: Optional[Callable[[Any], Optional[Process]]] = None
               ) -> Process:
    """Poll on a fixed interval until *accept* likes a result.

    Each round runs ``poll_factory()`` and passes the result to
    *accept*; between rounds it sleeps *interval*.  ``on_result`` (if
    given) runs after every poll — it may return a process to wait on
    (e.g. "write what we fetched to disk", producing the periodic
    disk-write peaks of Figures 6-7).  Raises
    :class:`WatchdogTimeout` when *timeout* elapses first.

    The value is ``(result, polls)``.
    """
    if interval <= 0:
        raise ValueError("poll interval must be positive")

    def op() -> Generator[Event, None, Tuple[Any, int]]:
        deadline = sim.now + timeout
        polls = 0
        while True:
            result = yield poll_factory()
            polls += 1
            if on_result is not None:
                side_effect = on_result(result)
                if side_effect is not None:
                    yield side_effect
            if accept(result):
                return result, polls
            if sim.now >= deadline:
                raise WatchdogTimeout(
                    f"tentative polling gave up after {polls} polls "
                    f"({timeout:.0f}s)")
            yield sim.timeout(interval)

    return sim.process(op(), name="poll-until")


def await_waiter(sim: Simulator, register: Callable[[], Event],
                 cancel: Callable[[Event], None], timeout: float,
                 what: str) -> Process:
    """Park on a waiter event under a deadline.

    ``register()`` hands out the waiter — a
    :class:`~repro.grid.poller.PollMux` registration, a
    :class:`~repro.grid.notify.NotifyQueue` subscription — and is called
    *inside* the waiting process.  The value is the waiter's value; a
    failure propagated through the waiter (a batch poll that raised) is
    re-raised as-is.  If *timeout* elapses first, ``cancel(waiter)``
    detaches it (the source must not keep working for a waiter that
    gave up), the abandoned waiter is defused, and
    :class:`WatchdogTimeout` is raised, exactly like :func:`poll_until`.
    """
    if timeout <= 0:
        raise ValueError("await_waiter timeout must be positive")

    def op() -> Generator[Event, None, Any]:
        waiter = register()
        deadline = sim.timeout(timeout)
        yield sim.any_of([waiter, deadline])
        if waiter.triggered:
            if waiter.ok:
                return waiter.value
            raise waiter.value
        cancel(waiter)
        _abandon(waiter)
        raise WatchdogTimeout(f"{what} gave up ({timeout:.0f}s)")

    return sim.process(op(), name=f"await:{what}")
