"""The sim-kernel profiler: where does the wall clock actually go?

ROADMAP item 4(b): before the repo can claim "N× scale at M events per
second", it needs a meter.  The :class:`KernelProfiler` hooks the three
hot paths that dominate a run's wall time —

* :meth:`Simulator.step`'s callback dispatch (the simulation itself),
* :meth:`EventBus.emit` (structured telemetry events), and
* :meth:`Gauge.set` (level recording)

— and splits every wall-clock second into **simulation work**
(attributed per process / handler name) versus **telemetry overhead**
(bus + gauges), so ``benchmarks/bench_kernel.py`` can gate both the
kernel's events-per-second throughput and the observability tax.

Two invariants the hooks are built around:

* **Zero perturbation.**  The profiler measures *wall* time only; it
  never touches the simulated clock, never creates simulation events,
  and the goldens stay byte-identical with it attached (the attach
  test pins this).
* **Zero cost when detached.**  Each hot path pays exactly one ``is
  None`` check when no profiler is attached — the hooks live behind
  ``sim._profiler`` / ``bus.profiler`` / ``gauge.profiler`` attributes
  that default to ``None``.

Attribution buckets normalise digit runs in process names
(``worker17`` → ``worker#``) so a thousand workers fold into one row.
"""

from __future__ import annotations

import re
import time
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.events import Event
    from repro.simkernel.kernel import Simulator

__all__ = ["KernelProfiler", "profile"]

_DIGITS = re.compile(r"\d+")


class KernelProfiler:
    """Wall-clock accounting for one simulator run.

    Usage::

        prof = KernelProfiler(sim).attach()
        sim.run(until=3600)
        prof.detach()
        print(prof.report())

    or as a context manager via :func:`profile`.
    """

    def __init__(self, sim: "Simulator", clock: Callable[[], float] = time.perf_counter):
        self.sim = sim
        #: The wall-clock source (monkeypatchable in tests).
        self.clock = clock
        # Raw callback name -> [bucket, self_seconds, calls].  One flat
        # record keeps the dispatch hook to a single dict lookup per
        # callback — the bench_kernel overhead gate (< 10% wall over a
        # bare run) leaves no room for regex calls or parallel dicts in
        # this path; ``self_seconds``/``calls`` aggregate it lazily.
        self._stats: Dict[str, list] = {}
        #: Wall seconds spent inside bus.emit / gauge.set (the
        #: observability tax; hooks add to this from outside).
        self.telemetry_seconds = 0.0
        self.events_dispatched = 0
        self._attached = False
        self._t_attach = 0.0
        #: Wall seconds between attach and detach (run() included).
        self.wall_seconds = 0.0
        self._events_at_attach = 0

    # -- lifecycle ----------------------------------------------------------

    def attach(self) -> "KernelProfiler":
        """Install the hooks on the simulator, its bus and its gauges."""
        if self._attached:
            return self
        # Imported here so the simkernel keeps zero telemetry imports.
        from repro.telemetry.events import bus
        from repro.telemetry.gauges import gauges
        self.sim._profiler = self
        event_bus = bus(self.sim)
        event_bus.profiler = self
        board = gauges(self.sim)
        board.profiler = self
        for name in board.names():
            cell = board.get(name)
            if cell is not None:
                cell.profiler = self
        self._attached = True
        self._events_at_attach = self.sim.events_processed
        self._t_attach = self.clock()
        return self

    def detach(self) -> "KernelProfiler":
        """Remove the hooks and freeze the wall-clock totals."""
        if not self._attached:
            return self
        self.wall_seconds += self.clock() - self._t_attach
        from repro.telemetry.events import bus
        from repro.telemetry.gauges import gauges
        if self.sim._profiler is self:
            self.sim._profiler = None
        event_bus = bus(self.sim)
        if event_bus.profiler is self:
            event_bus.profiler = None
        board = gauges(self.sim)
        if board.profiler is self:
            board.profiler = None
        for name in board.names():
            cell = board.get(name)
            if cell is not None and cell.profiler is self:
                cell.profiler = None
        self._attached = False
        return self

    def __enter__(self) -> "KernelProfiler":
        return self.attach()

    def __exit__(self, *exc: Any) -> None:
        self.detach()

    # -- the kernel hook ----------------------------------------------------

    def run_callbacks(self, event: "Event", callbacks: List[Callable]) -> None:
        """Timed replacement for the kernel's callback dispatch loop.

        Must behave exactly like ``for cb in callbacks: cb(event)`` —
        same order, exceptions propagate — with each callback's wall
        time charged to its bucket.
        """
        clock = self.clock
        stats = self._stats
        self.events_dispatched += 1
        for cb in callbacks:
            owner = getattr(cb, "__self__", None)
            if owner is not None:
                name = getattr(owner, "name", "") or type(owner).__name__
            else:
                name = getattr(cb, "__qualname__",
                               getattr(cb, "__name__", "<callback>"))
            stat = stats.get(name)
            if stat is None:
                stat = stats[name] = [_DIGITS.sub("#", name), 0.0, 0]
            t0 = clock()
            try:
                cb(event)
            finally:
                stat[1] += clock() - t0
                stat[2] += 1

    # -- derived numbers ----------------------------------------------------

    @property
    def attached(self) -> bool:
        return self._attached

    @property
    def self_seconds(self) -> Dict[str, float]:
        """Wall seconds spent executing event callbacks, per bucket."""
        out: Dict[str, float] = {}
        for bucket, seconds, _ in self._stats.values():
            out[bucket] = out.get(bucket, 0.0) + seconds
        return out

    @property
    def calls(self) -> Dict[str, int]:
        """Callback invocations per bucket."""
        out: Dict[str, int] = {}
        for bucket, _, count in self._stats.values():
            out[bucket] = out.get(bucket, 0) + count
        return out

    @property
    def dispatch_seconds(self) -> float:
        """Wall seconds inside profiled callbacks, total."""
        return sum(stat[1] for stat in self._stats.values())

    def elapsed(self) -> float:
        """Wall seconds observed so far (live while attached)."""
        if self._attached:
            return self.wall_seconds + (self.clock() - self._t_attach)
        return self.wall_seconds

    def events_per_second(self) -> float:
        """Kernel events dispatched per wall-clock second."""
        elapsed = self.elapsed()
        return self.events_dispatched / elapsed if elapsed > 0 else 0.0

    def simulation_seconds(self) -> float:
        """Callback wall time net of the telemetry recording inside it.

        Bus emits and gauge updates happen *within* handler frames, so
        their time is part of the per-bucket self time; subtracting the
        telemetry accumulator yields pure simulation work.
        """
        return max(0.0, self.dispatch_seconds - self.telemetry_seconds)

    def telemetry_fraction(self) -> float:
        """Telemetry's share of profiled dispatch time (the tax)."""
        if self.dispatch_seconds <= 0:
            return 0.0
        return min(1.0, self.telemetry_seconds / self.dispatch_seconds)

    def top(self, n: int = 10) -> List[Dict[str, Any]]:
        """The *n* hottest buckets by self time."""
        rows = [{"bucket": b, "self_seconds": s, "calls": self.calls.get(b, 0)}
                for b, s in self.self_seconds.items()]
        rows.sort(key=lambda r: (-r["self_seconds"], r["bucket"]))
        return rows[:n]

    def report(self, top: int = 12) -> str:
        """An aligned text report: throughput, split, hottest handlers."""
        lines = [
            f"events dispatched   {self.events_dispatched}",
            f"wall seconds        {self.elapsed():.4f}",
            f"events/second       {self.events_per_second():,.0f}",
            f"dispatch seconds    {self.dispatch_seconds:.4f}",
            f"  simulation        {self.simulation_seconds():.4f}",
            f"  telemetry         {self.telemetry_seconds:.4f}"
            f"  ({self.telemetry_fraction():.1%} of dispatch)",
        ]
        rows = [("handler", "self_s", "calls", "share")]
        total = self.dispatch_seconds or 1.0
        for r in self.top(top):
            rows.append((r["bucket"], f"{r['self_seconds']:.4f}",
                         str(r["calls"]), f"{r['self_seconds'] / total:.1%}"))
        widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
        lines.append("")
        lines.extend(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in rows)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        state = "attached" if self._attached else "detached"
        return (f"<KernelProfiler {state} events={self.events_dispatched} "
                f"eps={self.events_per_second():,.0f}>")


def profile(sim: "Simulator",
            clock: Callable[[], float] = time.perf_counter) -> KernelProfiler:
    """A fresh (unattached) profiler for *sim* — use as a context manager."""
    return KernelProfiler(sim, clock=clock)
