"""The structured event bus: one shared stream every layer feeds.

Beside the host sampler (3-second resource rates) and per-request
:class:`~repro.core.context.TraceSpan` trees, the bus is the stack's
one stream of what happened: every layer (each SOAP crossing, onServe
core, the Cyberaide agent, GRAM, GridFTP, the batch scheduler, the WAL)
emits small *typed* events with the simulated timestamp and, where one
exists, the request id — so any analysis can correlate a SOAP request
with the GridFTP transfer and LRM job it caused.

Observational purity
--------------------
Emitting is plain Python bookkeeping: no simulation events are created,
no simulated time is consumed, and subscriber callbacks run synchronously
in the emitter's stack frame.  Attaching (or ignoring) the bus therefore
cannot change a run's timing — the property the golden-series tests
pin down byte-for-byte.

The bus is a *flight recorder*: its ring keeps the newest ``capacity``
events, what one dumps when something has just gone wrong, so a long
run holds no more of them than a short one.  Per-kind counters stay
exact across eviction and :attr:`EventBus.dropped` counts what the ring
let go.  A reader that needs every event of some kinds for the whole
run opens a :class:`Recorder` before the run (``bus(sim).record(...)``)
and asks it instead of the ring.

Usage::

    from repro.telemetry.events import bus
    bus(sim).emit("gram.submit", layer="grid", request_id=rid,
                  site=site.name, job_id=job_id)

``bus(sim)`` lazily attaches one :class:`EventBus` per simulator, so
every component of a run shares the same stream and a fresh simulator
always starts with an empty one.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any, Callable, Deque, Dict, Iterable, List, Optional, TYPE_CHECKING,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.kernel import Simulator

__all__ = ["TelemetryEvent", "EventBus", "Recorder", "bus"]

#: Default ring capacity (events, not bytes).  At ~40 events per
#: invocation this is the last ~100 invocations: what a flight recorder
#: dumps, not the whole run, which readers of it record instead.
DEFAULT_CAPACITY = 4096


class TelemetryEvent:
    """One structured occurrence on the bus."""

    __slots__ = ("ts", "kind", "layer", "request_id", "fields")

    def __init__(self, ts: float, kind: str, layer: str,
                 request_id: Optional[str], fields: Dict[str, Any]):
        #: Simulated time of emission.
        self.ts = ts
        #: Dotted event type, e.g. ``"ws.request"`` or ``"sched.start"``.
        self.kind = kind
        #: Emitting layer: ws / core / agent / grid / db / mds.
        self.layer = layer
        #: Correlating request id (``None`` when no context was in scope).
        self.request_id = request_id
        #: Event-specific payload (small scalars only, by convention).
        self.fields = fields

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        rid = f" rid={self.request_id}" if self.request_id else ""
        return f"<TelemetryEvent {self.kind}@{self.ts:.3f}{rid}>"


class EventBus:
    """A ring-buffered, subscribable stream of :class:`TelemetryEvent`."""

    def __init__(self, sim: "Simulator", capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("bus capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._ring: Deque[TelemetryEvent] = deque(maxlen=capacity)
        #: kind -> exact emission count (survives ring eviction).
        self._counts: Dict[str, int] = {}
        #: (callback, kinds-or-None) subscriber slots.
        self._subscribers: List[List[Any]] = []
        self.emitted = 0
        #: Wall-clock profiler accounting recorder (None = off): when
        #: set, the wall time spent inside :meth:`emit` — including
        #: subscriber callbacks — is charged to the telemetry side of
        #: the profiler's overhead split.
        self.profiler = None

    # -- emission -----------------------------------------------------------

    def emit(self, kind: str, layer: str = "",
             request_id: Optional[str] = None,
             **fields: Any) -> TelemetryEvent:
        """Record one event at the current simulated time.

        Purely observational: allocates no simulation events; subscriber
        callbacks run inline and must be observational too.
        """
        profiler = self.profiler
        t0 = profiler.clock() if profiler is not None else 0.0
        event = TelemetryEvent(self.sim.now, kind, layer, request_id, fields)
        self._ring.append(event)
        self._counts[kind] = self._counts.get(kind, 0) + 1
        self.emitted += 1
        for slot in self._subscribers:
            kinds = slot[1]
            if kinds is None or kind in kinds:
                slot[0](event)
        if profiler is not None:
            profiler.telemetry_seconds += profiler.clock() - t0
        return event

    # -- subscription -------------------------------------------------------

    def subscribe(self, callback: Callable[[TelemetryEvent], None],
                  kinds: Optional[Iterable[str]] = None,
                  ) -> Callable[[], None]:
        """Call *callback* on every future event (optionally filtered).

        Returns an unsubscribe function.  Callbacks must be pure
        observers — they run inside the emitting component.
        """
        slot = [callback, frozenset(kinds) if kinds is not None else None]
        self._subscribers.append(slot)

        def unsubscribe() -> None:
            if slot in self._subscribers:
                self._subscribers.remove(slot)

        return unsubscribe

    def record(self, *kinds: str) -> "Recorder":
        """Keep every future event of *kinds*, whatever the ring evicts."""
        return Recorder(self, kinds)

    # -- queries ------------------------------------------------------------

    def events(self, kind: Optional[str] = None,
               layer: Optional[str] = None,
               request_id: Optional[str] = None) -> List[TelemetryEvent]:
        """Retained events matching the filters, oldest first."""
        return _select(self._ring, kind, layer, request_id)

    def first(self, kind: str, **field_filters: Any) -> Optional[TelemetryEvent]:
        """Oldest retained event of *kind* whose fields match the filters."""
        return _first(self._ring, kind, field_filters)

    def counts(self) -> Dict[str, int]:
        """Exact per-kind emission totals (eviction-proof)."""
        return dict(self._counts)

    @property
    def dropped(self) -> int:
        """Events the ring has evicted: emitted minus retained."""
        return self.emitted - len(self._ring)

    def __len__(self) -> int:
        """Number of *retained* events (<= capacity)."""
        return len(self._ring)

    def __iter__(self):
        return iter(self._ring)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (f"<EventBus retained={len(self._ring)} "
                f"emitted={self.emitted} kinds={len(self._counts)}>")


class Recorder:
    """Every event of some kinds since it opened, in emission order.

    One bus subscription: the whole-run counterpart of the ring, for a
    reader (a scenario's epilogue, the critical-path analyzer) that
    needs events the ring may have evicted.  It answers :meth:`events`
    and :meth:`first` as :class:`EventBus` does; asking it for a kind it
    does not record is an error, not an empty answer.
    """

    def __init__(self, bus: EventBus, kinds: Iterable[str]):
        self.kinds = frozenset(kinds)
        self._events: List[TelemetryEvent] = []
        self._unsubscribe = bus.subscribe(self._events.append,
                                          kinds=self.kinds)

    def close(self) -> None:
        """Stop recording; what was recorded stays readable."""
        self._unsubscribe()

    def events(self, kind: Optional[str] = None,
               layer: Optional[str] = None,
               request_id: Optional[str] = None) -> List[TelemetryEvent]:
        """Recorded events matching the filters, oldest first."""
        self._check(kind)
        return _select(self._events, kind, layer, request_id)

    def first(self, kind: str, **field_filters: Any) -> Optional[TelemetryEvent]:
        """Oldest recorded event of *kind* whose fields match the filters."""
        self._check(kind)
        return _first(self._events, kind, field_filters)

    def _check(self, kind: Optional[str]) -> None:
        if kind is not None and kind not in self.kinds:
            raise ValueError(f"recorder does not record {kind!r}")


def _select(events: Iterable[TelemetryEvent], kind: Optional[str],
            layer: Optional[str],
            request_id: Optional[str]) -> List[TelemetryEvent]:
    out = []
    for ev in events:
        if kind is not None and ev.kind != kind:
            continue
        if layer is not None and ev.layer != layer:
            continue
        if request_id is not None and ev.request_id != request_id:
            continue
        out.append(ev)
    return out


def _first(events: Iterable[TelemetryEvent], kind: str,
           field_filters: Dict[str, Any]) -> Optional[TelemetryEvent]:
    for ev in events:
        if ev.kind != kind:
            continue
        if all(ev.fields.get(k) == v for k, v in field_filters.items()):
            return ev
    return None


def bus(sim: "Simulator") -> EventBus:
    """The simulator's event bus (lazily attached, one per run).

    Mirrors how request ids hang off the simulator: state tied to a run
    lives on its :class:`~repro.simkernel.kernel.Simulator` so a fresh
    simulator always starts clean — which is what keeps telemetry out
    of cross-run determinism questions.
    """
    existing = getattr(sim, "_telemetry_bus", None)
    if existing is None:
        existing = EventBus(sim)
        sim._telemetry_bus = existing  # type: ignore[attr-defined]
    return existing
