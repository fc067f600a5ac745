"""Equal-share capacity server with exact work accounting.

A :class:`FairShareServer` owns a capacity *C* (in work units per second:
bytes/s for links and disks, cores for CPUs).  Each active flow receives

    rate = min(per_flow_cap, C / n_active)

so capacity is divided equally, optionally capped per flow (a single task
cannot use more than one core).  Progress is integrated lazily: state is
only settled when flows arrive/finish or when a counter is read, so the
model is exact regardless of sampling interval.

Flows carry a tuple of *tags*; completed work is credited to every tag,
which lets one server answer questions like "bytes received by host X"
and "bytes sent by host Y" from the same flow population.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from repro.errors import HardwareError
from repro.simkernel.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.kernel import Simulator

__all__ = ["FairShareServer", "Flow"]

#: Remaining-work threshold below which a flow counts as finished.
_EPS = 1e-9


class Flow:
    """One unit of in-flight work on a :class:`FairShareServer`."""

    __slots__ = ("flow_id", "total", "remaining", "tags", "done", "started_at")

    def __init__(self, flow_id: int, total: float, tags: Tuple[str, ...],
                 done: Event, started_at: float):
        self.flow_id = flow_id
        self.total = total
        self.remaining = total
        self.tags = tags
        self.done = done
        self.started_at = started_at

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (f"<Flow #{self.flow_id} {self.remaining:.1f}/{self.total:.1f} "
                f"tags={self.tags}>")


class FairShareServer:
    """Capacity shared equally among active flows.

    Parameters
    ----------
    sim:
        Owning simulator.
    capacity:
        Work units per second available in total (may be ``inf``).
    per_flow_cap:
        Maximum rate a single flow may receive (default: unlimited).
    name:
        Label for diagnostics.
    """

    def __init__(self, sim: "Simulator", capacity: float,
                 per_flow_cap: Optional[float] = None, name: str = ""):
        if capacity <= 0:
            raise HardwareError(f"{name}: capacity must be positive")
        if per_flow_cap is not None and per_flow_cap <= 0:
            raise HardwareError(f"{name}: per_flow_cap must be positive")
        self.sim = sim
        self.capacity = float(capacity)
        self.per_flow_cap = per_flow_cap
        self.name = name
        self._flows: list[Flow] = []
        self._last_update = sim.now
        self._counter = itertools.count(1)
        # Cumulative completed work per tag (settled portion only).
        self._cumulative: Dict[str, float] = {}
        # Integral of instantaneous throughput over time (work units).
        self._work_integral = 0.0
        # Generation token invalidating stale completion timers.
        self._timer_generation = 0
        # Flow ids the armed timer is expected to complete (see _fire).
        self._expected_finishers: frozenset[int] = frozenset()

    # -- public API ---------------------------------------------------------

    @property
    def active_flows(self) -> int:
        """Number of flows currently being served."""
        return len(self._flows)

    def current_rate(self) -> float:
        """Rate granted to each active flow right now (0 if idle)."""
        n = len(self._flows)
        if n == 0:
            return 0.0
        rate = self.capacity / n
        if self.per_flow_cap is not None:
            rate = min(rate, self.per_flow_cap)
        return rate

    def submit(self, work: float, tags: Iterable[str] = ("default",)) -> Event:
        """Enqueue *work* units; the returned event fires on completion.

        The event's value is the elapsed service time.  Zero work
        completes after zero simulated time (but still via the event
        queue, preserving causal ordering).
        """
        if work < 0:
            raise HardwareError(f"{self.name}: negative work {work!r}")
        tags = tuple(tags)
        done = Event(self.sim, name=f"flow:{self.name}")
        if work == 0:
            for tag in tags:
                self._cumulative.setdefault(tag, 0.0)
            done.succeed(0.0)
            return done
        # Advance without re-arming: the one timer that counts is the
        # one armed below, once the new flow has changed the rates.
        self._advance()
        flow = Flow(next(self._counter), float(work), tags, done, self.sim.now)
        self._flows.append(flow)
        for tag in tags:
            self._cumulative.setdefault(tag, 0.0)
        self._reschedule()
        return done

    def cumulative(self, tag: str = "default", at: Optional[float] = None) -> float:
        """Total work completed for *tag* up to time *at* (default: now).

        Includes the partial progress of still-active flows, which is what
        a hardware byte counter would report.
        """
        if at is not None and at != self.sim.now:
            raise HardwareError("cumulative() can only be read at the current time")
        done = self._cumulative.get(tag, 0.0)
        rate = self.current_rate()
        elapsed = self.sim.now - self._last_update
        if rate > 0 and elapsed > 0:
            for flow in self._flows:
                if tag in flow.tags:
                    done += min(flow.remaining, rate * elapsed)
        return done

    def work_integral(self) -> float:
        """Total work units served so far (all tags, exact)."""
        self._settle()
        return self._work_integral

    def utilization_since(self, t0: float, integral_at_t0: float) -> float:
        """Mean utilization in [t0, now] given the integral sampled at t0."""
        dt = self.sim.now - t0
        if dt <= 0:
            return 0.0
        return (self.work_integral() - integral_at_t0) / (self.capacity * dt)

    # -- internals ------------------------------------------------------------

    def _settle(self, force_finish: frozenset[int] = frozenset()) -> None:
        """Bring the flows up to now, then re-arm the completion timer.

        Always re-arm: completions change rates, and floating-point
        rounding can leave the least flow a hair above the finish
        threshold when its timer fires — without a fresh timer it would
        stall forever.
        """
        self._advance(force_finish)
        self._reschedule()

    def _advance(self, force_finish: frozenset[int] = frozenset()) -> None:
        """Integrate progress since the last update and finish done flows.

        *force_finish* names flows whose completion timer just fired:
        they are completed even if floating-point cancellation (large
        clock value, tiny delay) left a residue above the epsilon
        threshold — without this the timer loop could stall, re-arming
        zero-length timers forever.
        """
        now = self.sim.now
        elapsed = now - self._last_update
        if elapsed > 0 and self._flows:
            rate = self.current_rate()
            step = rate * elapsed
            for flow in self._flows:
                progress = min(flow.remaining, step)
                flow.remaining -= progress
                self._work_integral += progress
                for tag in flow.tags:
                    self._cumulative[tag] += progress
        self._last_update = now

        finished = [f for f in self._flows
                    if f.remaining <= max(_EPS, f.total * 1e-12)
                    or f.flow_id in force_finish]
        for flow in finished:
            self._flows.remove(flow)
            # Absorb the sub-epsilon residue so counters stay exact.
            for tag in flow.tags:
                self._cumulative[tag] += flow.remaining
            self._work_integral += flow.remaining
            flow.remaining = 0.0
            flow.done.succeed(now - flow.started_at)

    def _reschedule(self) -> None:
        """Arm a timer for the next flow completion."""
        self._timer_generation += 1
        if not self._flows:
            return
        generation = self._timer_generation
        rate = self.current_rate()
        least = min(f.remaining for f in self._flows)
        delay = least / rate if rate > 0 else math.inf
        if math.isinf(delay):
            raise HardwareError(f"{self.name}: flow can never complete (rate 0)")
        # The flows this timer is for: everyone tied (within float noise)
        # with the least-remaining flow finishes when it fires.
        tolerance = least * 1e-9 + _EPS
        expected = frozenset(f.flow_id for f in self._flows
                             if f.remaining - least <= tolerance)
        self._expected_finishers = expected

        def _fire(_event: Event) -> None:
            if generation == self._timer_generation:
                self._settle(force_finish=expected)

        timer = self.sim.timeout(delay, name=f"fairshare-timer:{self.name}")
        timer.add_callback(_fire)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (f"<FairShareServer {self.name!r} cap={self.capacity} "
                f"flows={len(self._flows)}>")
