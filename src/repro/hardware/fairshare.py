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
from repro.simkernel.events import Event, Timeout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.kernel import Simulator

__all__ = ["FairShareServer", "Flow"]

#: Absolute floor of a flow's finish threshold (see Flow.finish_below).
_EPS = 1e-9


class Flow:
    """One unit of in-flight work on a :class:`FairShareServer`."""

    __slots__ = ("flow_id", "total", "remaining", "finish_below", "tags",
                 "done", "started_at")

    def __init__(self, flow_id: int, total: float, tags: Tuple[str, ...],
                 done: Event, started_at: float):
        self.flow_id = flow_id
        self.total = total
        self.remaining = total
        #: Remaining-work threshold below which the flow counts as finished.
        self.finish_below = max(_EPS, total * 1e-12)
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
        self._flow_name = f"flow:{name}"
        self._timer_name = f"fairshare-timer:{name}"
        self._flows: list[Flow] = []
        self._last_update = sim.now
        self._counter = itertools.count(1)
        # Cumulative completed work per tag (settled portion only).
        self._cumulative: Dict[str, float] = {}
        # Integral of instantaneous throughput over time (work units).
        self._work_integral = 0.0
        # Generation token invalidating stale completion timers.
        self._timer_generation = 0
        # Flow ids the armed timer is expected to complete (see _on_timer).
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
        return self.join(work, tuple(tags), Event(self.sim, self._flow_name),
                         self.sim.now)

    def join(self, work: float, tags: Tuple[str, ...], done: Event,
             started_at: float) -> Event:
        """Serve *work* units as a new flow that completes *done*.

        *done* succeeds, when the last unit is served, with the time
        elapsed since *started_at* — so an operation that began before
        its flow did (link latency, disk seek) hands in its own
        completion event and start instant and needs no event of its
        own around the flow's.
        """
        if work < 0:
            raise HardwareError(f"{self.name}: negative work {work!r}")
        for tag in tags:
            self._cumulative.setdefault(tag, 0.0)
        if work == 0:
            done.succeed(self.sim.now - started_at)
            return done
        # Advance without re-arming: the one timer that counts is the
        # one armed below, once the new flow has changed the rates.
        self._advance()
        self._flows.append(
            Flow(next(self._counter), float(work), tags, done, started_at))
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
        flows = self._flows
        cumulative = self._cumulative
        elapsed = now - self._last_update
        if elapsed > 0 and flows:
            step = self.current_rate() * elapsed
            integral = self._work_integral
            for flow in flows:
                remaining = flow.remaining
                progress = step if step < remaining else remaining
                flow.remaining = remaining - progress
                integral += progress
                for tag in flow.tags:
                    cumulative[tag] += progress
            self._work_integral = integral
        self._last_update = now

        finished = None
        for flow in flows:
            if (flow.remaining <= flow.finish_below
                    or flow.flow_id in force_finish):
                if finished is None:
                    finished = []
                finished.append(flow)
        if finished is None:
            return
        for flow in finished:
            flows.remove(flow)
            # Absorb the sub-epsilon residue so counters stay exact.
            for tag in flow.tags:
                cumulative[tag] += flow.remaining
            self._work_integral += flow.remaining
            flow.remaining = 0.0
            flow.done.succeed(now - flow.started_at)

    def _reschedule(self) -> None:
        """Arm a timer for the next flow completion."""
        self._timer_generation += 1
        flows = self._flows
        if not flows:
            return
        rate = self.current_rate()
        if len(flows) == 1:
            only = flows[0]
            least = only.remaining
            expected = frozenset((only.flow_id,))
        else:
            least = flows[0].remaining
            for flow in flows:
                if flow.remaining < least:
                    least = flow.remaining
            # The flows this timer is for: everyone tied (within float
            # noise) with the least-remaining flow finishes when it fires.
            tolerance = least * 1e-9 + _EPS
            expected = frozenset([flow.flow_id for flow in flows
                                  if flow.remaining - least <= tolerance])
        delay = least / rate if rate > 0 else math.inf
        if delay == math.inf:
            raise HardwareError(f"{self.name}: flow can never complete (rate 0)")
        self._expected_finishers = expected
        # The timer carries the generation it was armed in; a later
        # re-arm makes it stale.
        timer = Timeout(self.sim, delay, self._timer_generation,
                        self._timer_name)
        timer.callbacks.append(self._on_timer)

    def _on_timer(self, timer: Event) -> None:
        if timer._value == self._timer_generation:
            self._settle(force_finish=self._expected_finishers)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (f"<FairShareServer {self.name!r} cap={self.capacity} "
                f"flows={len(self._flows)}>")
