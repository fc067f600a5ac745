"""Gauges: instantaneous levels (queue depths, utilization).

Where the host sampler polls cumulative hardware counters on a fixed
interval, a :class:`Gauge` is *change-driven*: the instrumented
component sets the new level at the simulated instant it changes.  No
sampling process, no simulation events — attaching gauges cannot
perturb a run (the same purity rule the event bus follows).

A gauge holds its current level and its peak, nothing that grows with
the run.  A reader that needs the history asks for it first, the way
a whole-run reader opens ``EventBus.record``: after
``gauges(sim).record(name, ...)`` the named gauges append a sample each
time their level moves, into an ordinary
:class:`~repro.telemetry.series.TimeSeries` that plots and summarizes
alongside the sampler's.

The :class:`GaugeBoard` is the per-simulator registry.  Components
create their gauges through ``gauges(sim).gauge(name, unit)``; analysis
code reads them back by name.  ``attach_resource`` instruments a
:class:`~repro.simkernel.resources.Resource` (wait-queue depth and slot
utilization) through the resource's observer hook, so GRAM head-node
CPU queues and any other simkernel resource become visible without the
simkernel layer knowing telemetry exists.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, TYPE_CHECKING

from repro.telemetry.series import TimeSeries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.kernel import Simulator
    from repro.simkernel.resources import Resource

__all__ = ["Gauge", "GaugeBoard", "gauges"]


def _labels_key(name: str, labels: Optional[Dict[str, str]]) -> str:
    """The board key of a (possibly labelled) gauge.

    Labelled gauges share a *family* name and differ by label set —
    ``router.inflight{replica="appliance02"}`` — mirroring Prometheus
    child series.
    """
    if not labels:
        return name
    body = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return f"{name}{{{body}}}"


class Gauge:
    """One instantaneous level: its current value and its peak.

    A gauge keeps no history unless someone asked for it: a recorded
    gauge (:meth:`GaugeBoard.record`) also appends a step-series sample
    each time the level moves.
    """

    __slots__ = ("sim", "name", "unit", "series", "_current", "_peak",
                 "profiler")

    def __init__(self, sim: "Simulator", name: str, unit: str = "",
                 labels: Optional[Dict[str, str]] = None):
        self.sim = sim
        #: The board key: the family name plus its labels.
        self.name = _labels_key(name, labels)
        self.unit = unit
        #: Every level since recording began (None: not recorded).
        self.series: Optional[TimeSeries] = None
        self._current = 0.0
        self._peak: Optional[float] = None  # None: never set
        #: Wall-clock profiler accounting recorder (None = off).
        self.profiler = None

    @property
    def current(self) -> float:
        return self._current

    def set(self, value: float) -> None:
        """Take *value* as the level now (a sample only if it moved)."""
        if value == self._current and self._peak is not None:
            return
        profiler = self.profiler
        t0 = profiler.clock() if profiler is not None else 0.0
        self._current = value = float(value)
        if self._peak is None or value > self._peak:
            self._peak = value
        if self.series is not None:
            self.series.append(self.sim.now, value)
        if profiler is not None:
            profiler.telemetry_seconds += profiler.clock() - t0

    def adjust(self, delta: float) -> None:
        """Shift the level by *delta* (e.g. +1 on enqueue, -1 on grant)."""
        self.set(self._current + delta)

    def peak(self) -> float:
        """Highest level ever set (0 before the first)."""
        return 0.0 if self._peak is None else self._peak

    def _record(self) -> None:
        if self.series is None:
            self.series = TimeSeries(self.name, unit=self.unit)
            if self._peak is not None:
                self.series.append(self.sim.now, self._current)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (f"<Gauge {self.name!r} current={self._current:g} "
                f"peak={self.peak():g}>")


class GaugeBoard:
    """All gauges of one simulator run, created on first use."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._gauges: Dict[str, Gauge] = {}
        #: Keys whose gauges keep a series (see :meth:`record`).
        self._recorded: Set[str] = set()
        #: Propagated onto every new gauge (wall-clock accounting only).
        self.profiler = None

    def gauge(self, name: str, unit: str = "",
              labels: Optional[Dict[str, str]] = None) -> Gauge:
        """The (created-on-first-use) gauge called *name*.

        With *labels*, the gauge is one child of the ``name`` family,
        keyed by its full ``name{label="value",...}`` form.
        """
        key = _labels_key(name, labels)
        cell = self._gauges.get(key)
        if cell is None:
            cell = self._gauges[key] = Gauge(self.sim, name, unit=unit,
                                             labels=labels)
            cell.profiler = self.profiler
            if key in self._recorded:
                cell._record()
        return cell

    def record(self, *keys: str) -> None:
        """Keep the series of the gauges called *keys* from now on.

        A gauge created later keeps it from its first sample, so
        recording before a run gives every sample of it; one that
        already has a level starts its series with that level, now.
        """
        self._recorded.update(keys)
        for key in keys:
            cell = self._gauges.get(key)
            if cell is not None:
                cell._record()

    def get(self, name: str,
            labels: Optional[Dict[str, str]] = None) -> Optional[Gauge]:
        return self._gauges.get(_labels_key(name, labels))

    def names(self) -> List[str]:
        return sorted(self._gauges)

    def series(self) -> List[TimeSeries]:
        """Every recorded gauge's series, name-ordered (for reports)."""
        return [self._gauges[name].series for name in sorted(self._gauges)
                if self._gauges[name].series is not None]

    def peaks(self) -> Dict[str, float]:
        """name -> peak level, for bottleneck summaries."""
        return {name: self._gauges[name].peak()
                for name in sorted(self._gauges)}

    # -- instrumentation helpers -------------------------------------------

    def attach_resource(self, resource: "Resource", prefix: str) -> None:
        """Gauge a simkernel Resource's wait queue and utilization.

        Installs an observer on *resource* feeding two gauges:
        ``<prefix>.queue`` (waiting requests) and ``<prefix>.in_use``
        (held slots).  The observer is a pure recorder; the resource
        keeps zero telemetry knowledge.
        """
        queue_g = self.gauge(f"{prefix}.queue", unit="reqs")
        used_g = self.gauge(f"{prefix}.in_use", unit="slots")

        def observe(res: "Resource") -> None:
            queue_g.set(len(res.queue))
            used_g.set(len(res.users))

        resource.observer = observe
        observe(resource)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<GaugeBoard gauges={len(self._gauges)}>"


def gauges(sim: "Simulator") -> GaugeBoard:
    """The simulator's gauge board (lazily attached, one per run)."""
    existing = getattr(sim, "_gauge_board", None)
    if existing is None:
        existing = GaugeBoard(sim)
        sim._gauge_board = existing  # type: ignore[attr-defined]
    return existing
