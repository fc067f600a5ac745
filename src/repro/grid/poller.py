"""PollMux: one adaptive batch-polling loop per site.

The faithful §VIII.B workaround runs one fixed-interval ``poll_until``
loop *per in-flight job* — N jobs on a site means N independent
gatekeeper exchanges per interval, each paying the full control
envelope.  The multiplexer replaces them with a single loop per site
that polls every registered job in one batch exchange (the
``fetch_output_many`` API, or anything else the ``batch_poll``
callable wraps) on an *adaptive* interval: it starts
fast, backs off exponentially while nothing changes, and snaps back to
the floor the moment a job completes — bursts of completions are
detected quickly, long quiet stretches cost few exchanges.

Determinism contract: the loop is driven purely by simulation time (no
wall clock, no randomness), only exists while at least one job is
registered, and schedules *nothing* when idle — a constructed-but-empty
PollMux leaves the timeline byte-identical to a build without one.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.simkernel.events import Event
from repro.simkernel.kernel import Simulator
from repro.simkernel.process import Process
from repro.telemetry.events import bus
from repro.telemetry.gauges import gauges

__all__ = ["PollMux"]


class _Entry:
    """One registered job: its waiter event and per-job poll count."""

    __slots__ = ("token", "event", "polls")

    def __init__(self, token: Any, event: Event):
        self.token = token
        self.event = event
        self.polls = 0


class PollMux:
    """Per-site multiplexer over a batch poll operation.

    *batch_poll* takes a list of ``(key, token)`` pairs and returns a
    simulation :class:`Process` whose value maps each key to a result;
    *accept* decides per result whether the job is finished with
    polling.  :meth:`register` returns an event that fires with
    ``(result, polls)`` — the same value shape as
    :func:`~repro.core.watchdog.poll_until` — once *accept* likes that
    key's result.
    """

    #: Default floor of the adaptive interval (seconds).
    MIN_INTERVAL = 2.0

    def __init__(self, sim: Simulator, name: str,
                 batch_poll: Callable[[List[Tuple[Any, Any]]], Process],
                 accept: Callable[[Any], bool],
                 min_interval: float = MIN_INTERVAL,
                 max_interval: float = 30.0,
                 backoff: float = 2.0):
        if min_interval <= 0:
            raise ValueError("poll min_interval must be positive")
        if max_interval < min_interval:
            raise ValueError("poll max_interval must be >= min_interval")
        if backoff < 1.0:
            raise ValueError("poll backoff must be >= 1.0")
        self.sim = sim
        self.name = name
        self.batch_poll = batch_poll
        self.accept = accept
        self.min_interval = min_interval
        self.max_interval = max_interval
        self.backoff = backoff
        self.rounds = 0
        self._interval = min_interval
        self._pending: Dict[Any, _Entry] = {}
        self._running = False
        self._in_batch = False
        #: A key registered while a batch was in flight: its snap-to-
        #: floor must survive that round's quiet-batch backoff.
        self._fresh_mid_batch = False
        self._wake: Optional[Event] = None
        self._bus = bus(sim)
        g = gauges(sim)
        self._pending_gauge = g.gauge(f"poller.{name}.pending", unit="jobs")
        self._interval_gauge = g.gauge(f"poller.{name}.interval", unit="s")
        self._batch_gauge = g.gauge(f"poller.{name}.batch", unit="jobs")

    @property
    def pending(self) -> int:
        return len(self._pending)

    @property
    def interval(self) -> float:
        """The interval the *next* quiet round will sleep."""
        return self._interval

    def register(self, key: Any, token: Any = None) -> Event:
        """Start multiplexed polling for *key*; returns the waiter event.

        A new registration resets the interval to the floor (a fresh job
        deserves a fast first look) and wakes the loop if it is mid-sleep.
        """
        if key in self._pending:
            raise ValueError(f"{self.name}: {key!r} already registered")
        entry = _Entry(token, self.sim.event(f"pollmux:{self.name}:{key}"))
        self._pending[key] = entry
        self._pending_gauge.adjust(+1)
        self._set_interval(self.min_interval)
        if self._in_batch:
            # The in-flight batch never polled this key; a quiet round
            # must not back the fresh job's floor off (the "fast first
            # look" contract).
            self._fresh_mid_batch = True
        if not self._running:
            self._running = True
            self.sim.process(self._run(), name=f"pollmux:{self.name}")
        elif self._wake is not None:
            wake, self._wake = self._wake, None
            wake.succeed()
        return entry.event

    def unregister(self, key: Any) -> None:
        """Stop polling *key* (e.g. its waiter timed out); idempotent."""
        if self._pending.pop(key, None) is not None:
            self._pending_gauge.adjust(-1)

    def _set_interval(self, value: float) -> None:
        self._interval = value
        self._interval_gauge.set(value)

    def _fail_batch(self, snapshot, exc: BaseException) -> None:
        """A failed batch fails the waiters *it actually covered*.

        Keys registered after the batch left (and re-registrations of a
        key that timed out meanwhile — a different entry object under
        the same key) were never polled by the failing exchange, so
        they stay pending; the loop restarts for them.  Failed waiters
        are defused: each one's own error handling decides what
        happens, not the kernel.
        """
        for key, entry in snapshot:
            if self._pending.get(key) is not entry:
                continue  # unregistered, or replaced by a fresh waiter
            del self._pending[key]
            self._pending_gauge.adjust(-1)
            entry.event.fail(exc)
            entry.event.defused()

    def _run(self):
        try:
            while self._pending:
                snapshot = list(self._pending.items())
                self._batch_gauge.set(len(snapshot))
                self._in_batch = True
                self._fresh_mid_batch = False
                try:
                    results = yield self.batch_poll(
                        [(key, entry.token) for key, entry in snapshot])
                except Exception as exc:
                    self._fail_batch(snapshot, exc)
                    if not self._pending:
                        return
                    # Mid-batch registrants survive the failure: poll
                    # them promptly on a fresh round from the floor.
                    self._set_interval(self.min_interval)
                    continue
                finally:
                    self._in_batch = False
                self.rounds += 1
                self._bus.emit("poller.batch", layer="grid", name=self.name,
                               jobs=len(snapshot), interval=self._interval)
                detected = 0
                for key, entry in snapshot:
                    if self._pending.get(key) is not entry:
                        # Unregistered while the batch ran — or timed
                        # out and re-registered: the fresh waiter was
                        # not in this batch and must not receive its
                        # result.
                        continue
                    entry.polls += 1
                    result = results.get(key) if results else None
                    if self.accept(result):
                        del self._pending[key]
                        self._pending_gauge.adjust(-1)
                        detected += 1
                        self._bus.emit("poller.detect", layer="grid",
                                       name=self.name, key=str(key),
                                       polls=entry.polls)
                        entry.event.succeed((result, entry.polls))
                if detected or self._fresh_mid_batch:
                    # Completions cluster — and a job registered while
                    # the batch was out still deserves its fast first
                    # look: hold the floor either way.
                    self._set_interval(self.min_interval)
                else:
                    self._set_interval(min(self._interval * self.backoff,
                                           self.max_interval))
                if not self._pending:
                    return
                self._wake = self.sim.event(f"pollmux:{self.name}:wake")
                yield self.sim.any_of([
                    self.sim.timeout(self._interval), self._wake])
                self._wake = None
        finally:
            self._running = False
            self._in_batch = False
            self._batch_gauge.set(0)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (f"<PollMux {self.name} pending={len(self._pending)} "
                f"interval={self._interval:.1f}s>")
