"""Equal-share capacity server with exact work accounting.

A :class:`FairShareServer` owns a capacity *C* (in work units per second:
bytes/s for links and disks, cores for CPUs).  Each active flow receives

    rate = min(per_flow_cap, C / n_active)

so capacity is divided equally, optionally capped per flow (a single task
cannot use more than one core).  Progress is integrated lazily: state is
only settled when flows arrive or finish.  A counter read adds the
in-flight progress without settling, so reading changes nothing and the
model is exact regardless of sampling interval.

Flows carry a tuple of *tags*; completed work is credited to every tag,
which lets one server answer questions like "bytes received by host X"
and "bytes sent by host Y" from the same flow population.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from repro.errors import HardwareError
from repro.simkernel.events import _PENDING, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.kernel import Simulator

__all__ = ["FairShareServer", "Flow"]

#: Absolute floor of a flow's finish threshold (see Flow.finish_below).
_EPS = 1e-9


class Flow:
    """One unit of in-flight work on a :class:`FairShareServer`."""

    __slots__ = ("total", "remaining", "finish_below", "tags", "done",
                 "started_at")

    def __init__(self, total: float, tags: Tuple[str, ...], done: Event,
                 started_at: float):
        self.total = total
        self.remaining = total
        #: Remaining-work threshold below which the flow counts as finished.
        self.finish_below = max(_EPS, total * 1e-12)
        self.tags = tags
        self.done = done
        self.started_at = started_at

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (f"<Flow {self.remaining:.1f}/{self.total:.1f} "
                f"tags={self.tags}>")


class _Tick:
    """A completion timer: a bare start slot on the kernel's queue.

    It is never triggered, so when it pops the kernel calls
    :meth:`_start`.  It carries the generation it was armed in; a later
    re-arm makes it stale, and a stale tick pops as a no-op.
    """

    __slots__ = ("_server", "_generation")
    _value = _PENDING

    def __init__(self, server: "FairShareServer", generation: int):
        self._server = server
        self._generation = generation

    @property
    def name(self) -> str:
        """The server's name: the profiler charges a tick to its device."""
        return self._server.name

    def _start(self, _slot: "_Tick") -> None:
        server = self._server
        if self._generation == server._timer_generation:
            # Always re-arm: completions change rates, and rounding can
            # leave the least flow a hair above its finish threshold.
            server._advance(server._expected_finishers)
            server._reschedule()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<_Tick {self._server.name!r} gen={self._generation}>"


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
        self._flows: list[Flow] = []
        self._last_update = sim.now
        # Cumulative completed work per tag (settled portion only).
        self._cumulative: Dict[str, float] = defaultdict(float)
        # Integral of instantaneous throughput over time (work units).
        self._work_integral = 0.0
        # Generation token invalidating stale completion ticks.
        self._timer_generation = 0
        # Flows the armed tick is expected to complete (see _advance).
        self._expected_finishers: Tuple[Flow, ...] = ()

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
        if work == 0:
            done.succeed(self.sim.now - started_at)
            return done
        flows = self._flows
        if flows:
            # Advance without re-arming: the one tick that counts is the
            # one armed below, once the new flow has changed the rates.
            self._advance()
        else:
            # Idle: nothing to integrate, and the new flow will run
            # alone, so its tick is its work over the solo rate.
            self._last_update = self.sim.now
        flows.append(Flow(float(work), tags, done, started_at))
        self._reschedule()
        return done

    def cumulative(self, tag: str = "default", at: Optional[float] = None) -> float:
        """Total work completed for *tag* up to time *at* (default: now).

        Includes the partial progress of still-active flows, which is what
        a hardware byte counter would report.
        """
        if at is not None and at != self.sim.now:
            raise HardwareError("cumulative() can only be read at the current time")
        return self._read(self._cumulative.get(tag, 0.0), tag)

    def work_integral(self) -> float:
        """Total work units served so far (all tags, exact).

        Like :meth:`cumulative` it adds the partial progress of active
        flows without settling them: a read changes no state.
        """
        return self._read(self._work_integral, None)

    # -- internals ------------------------------------------------------------

    def _read(self, done: float, tag: Optional[str]) -> float:
        """*done* plus the unsettled progress of the flows tagged *tag*
        (every flow for ``None``)."""
        rate = self.current_rate()
        elapsed = self.sim.now - self._last_update
        if rate > 0 and elapsed > 0:
            step = rate * elapsed
            for flow in self._flows:
                if tag is None or tag in flow.tags:
                    done += min(flow.remaining, step)
        return done

    def _advance(self, force_finish: Tuple[Flow, ...] = ()) -> None:
        """Integrate progress since the last update and finish done flows.

        *force_finish* names flows whose completion tick just fired:
        they are completed even if floating-point cancellation (large
        clock value, tiny delay) left a residue above the epsilon
        threshold — without this the tick loop could stall, re-arming
        zero-length ticks forever.
        """
        now = self.sim.now
        flows = self._flows
        cumulative = self._cumulative
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed > 0 and flows:
            rate = self.capacity / len(flows)  # current_rate(), inlined
            cap = self.per_flow_cap
            if cap is not None and cap < rate:
                rate = cap
            step = rate * elapsed
            integral = self._work_integral
            finished = []
            for flow in flows:
                remaining = flow.remaining
                progress = step if step < remaining else remaining
                remaining -= progress
                flow.remaining = remaining
                integral += progress
                for tag in flow.tags:
                    cumulative[tag] += progress
                if remaining <= flow.finish_below or flow in force_finish:
                    finished.append(flow)
            self._work_integral = integral
        else:
            finished = [flow for flow in flows
                        if flow.remaining <= flow.finish_below
                        or flow in force_finish]
        # Absorb the finishers' sub-epsilon residues only after every
        # flow's progress, so the counters' addition order stays put.
        for flow in finished:
            flows.remove(flow)
            for tag in flow.tags:
                cumulative[tag] += flow.remaining
            self._work_integral += flow.remaining
            flow.remaining = 0.0
            flow.done.succeed(now - flow.started_at)

    def _reschedule(self) -> None:
        """Arm a tick for the next flow completion; every tick armed
        before goes stale."""
        self._timer_generation += 1
        flows = self._flows
        n = len(flows)
        if n == 0:
            return
        rate = self.capacity / n  # current_rate(), inlined
        cap = self.per_flow_cap
        if cap is not None and cap < rate:
            rate = cap
        if n == 1:
            least = flows[0].remaining
            expected = (flows[0],)
        else:
            least = flows[0].remaining
            for flow in flows:
                if flow.remaining < least:
                    least = flow.remaining
            # The flows this tick is for: everyone tied (within float
            # noise) with the least-remaining flow finishes when it fires.
            tolerance = least * 1e-9 + _EPS
            expected = tuple([flow for flow in flows
                              if flow.remaining - least <= tolerance])
        delay = least / rate if rate > 0 else math.inf
        if delay == math.inf:
            raise HardwareError(f"{self.name}: flow can never complete (rate 0)")
        self._expected_finishers = expected
        self.sim._enqueue(_Tick(self, self._timer_generation), delay)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (f"<FairShareServer {self.name!r} cap={self.capacity} "
                f"flows={len(self._flows)}>")
