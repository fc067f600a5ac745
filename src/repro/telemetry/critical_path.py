"""Critical-path analysis: where did a request's wall-clock go?

The paper's §VIII.D ranks the stack's bottlenecks qualitatively (the
thin client uplink, then the LRM queue, then the middleware overheads).
This module makes that ranking quantitative for any traced request: it
walks the request's span tree and attributes every simulated second of
the end-to-end latency to one ``layer/category`` bucket:

* each span's **self-time** (its duration minus the union of its
  children's intervals) lands in a bucket chosen from the span name —
  ``client:*`` self-time is SOAP transport (``ws/transfer``),
  ``gridftp:*`` is payload staging (``grid/transfer``),
  ``service:*`` is middleware work (``core/compute``), and so on;
* the **polling span** (``service:polling``) is the interesting one:
  its self-time is the watchdog's sleep between tentative polls, which
  *overlaps* the grid-side job lifecycle.  Using the scheduler's
  ``sched.submit`` / ``sched.start`` / ``sched.finish`` bus events for
  the job in the span's meta, the idle time is split into
  ``grid/queueing`` (job waiting in the LRM queue), ``grid/compute``
  (job actually running) and ``core/queueing`` (detection lag: the
  interval between job completion and the poll that notices).

Self-times partition the root interval: spans nest, and where children
of one span ran side by side (the ranges of a striped stage) only the
chain the parent waited for — back from the child that finished last —
is charged.  The bucket totals therefore reconcile with the end-to-end
duration exactly — :meth:`Attribution.reconciles` asserts it to a
relative tolerance.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.core.context import RequestContext, TraceSpan
from repro.telemetry.events import EventBus, Recorder
from repro.telemetry.gauges import GaugeBoard

__all__ = ["Attribution", "analyze_request", "BUS_KINDS"]

Interval = Tuple[float, float]

#: The event kinds :func:`analyze_request` reads off its *bus*: record
#: these (``bus(sim).record(*BUS_KINDS)``) before a run whose requests
#: may outlive the ring.
BUS_KINDS = ("sched.submit", "sched.start", "sched.finish", "notify.deliver")


def _merge(intervals: List[Interval]) -> List[Interval]:
    """Union of intervals as a sorted, disjoint list."""
    out: List[Interval] = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def _complement(window: Interval, covered: List[Interval]) -> List[Interval]:
    """Sub-intervals of *window* not covered by *covered* (pre-merged)."""
    gaps: List[Interval] = []
    cursor = window[0]
    for a, b in covered:
        a, b = max(a, window[0]), min(b, window[1])
        if b <= cursor:
            continue
        if a > cursor:
            gaps.append((cursor, a))
        cursor = max(cursor, b)
    if cursor < window[1]:
        gaps.append((cursor, window[1]))
    return gaps


def _overlap(a: Interval, b: Interval) -> float:
    return max(0.0, min(a[1], b[1]) - max(a[0], b[0]))


def _classify(name: str) -> str:
    """Span name -> ``layer/category`` bucket for its self-time."""
    prefix = name.split(":", 1)[0]
    if prefix == "client":
        return "ws/transfer"       # SOAP envelopes on the wire + stub time
    if prefix in ("server", "request"):
        return "ws/compute"        # parse, dispatch, crossing
    if prefix == "agent":
        return ("agent/transfer" if "outputReady" in name
                else "agent/compute")
    if prefix == "router":
        # hop self-time is the routed envelopes on the wire; route
        # self-time is replica-side dispatch the route span brackets.
        return "ws/transfer" if name == "router:hop" else "ws/compute"
    if prefix == "gridftp":
        return "grid/transfer"     # payload staging over the uplink
    if prefix == "gram":
        return "grid/transfer"     # gatekeeper control exchanges
    if prefix == "notify":
        return "grid/transfer"     # push-path callback traffic
    if prefix == "db":
        return "db/storage"        # DB-tier fetches, lock waits, replicas
    if prefix in ("service", "onserve", "uddi", "management", "portal"):
        return "core/compute"      # middleware work on the appliance
    return "other/compute"


class Attribution:
    """Per-bucket latency attribution of one request."""

    def __init__(self, request_id: str, total: float):
        self.request_id = request_id
        #: End-to-end latency being explained (simulated seconds).
        self.total = total
        #: ``layer/category`` -> attributed seconds.
        self.buckets: Dict[str, float] = {}
        #: Gauge name -> peak level over the run (context for the table).
        self.queue_peaks: Dict[str, float] = {}
        self.span_count = 0

    def add(self, bucket: str, seconds: float) -> None:
        if seconds <= 0.0:
            return
        self.buckets[bucket] = self.buckets.get(bucket, 0.0) + seconds

    @property
    def attributed(self) -> float:
        return sum(self.buckets.values())

    @property
    def unattributed(self) -> float:
        return self.total - self.attributed

    def ranked(self) -> List[Tuple[str, float]]:
        """Buckets largest-first — the quantitative bottleneck ranking."""
        return sorted(self.buckets.items(), key=lambda kv: (-kv[1], kv[0]))

    def reconciles(self, tol: float = 0.01) -> bool:
        """Do the buckets sum to the end-to-end latency (within *tol*)?"""
        if self.total <= 0.0:
            return not self.buckets
        return abs(self.unattributed) <= tol * self.total

    def table(self) -> str:
        """An aligned text table: bucket, seconds, share of total."""
        rows = [("layer/category", "seconds", "share")]
        for bucket, secs in self.ranked():
            share = secs / self.total * 100.0 if self.total else 0.0
            rows.append((bucket, f"{secs:.3f}", f"{share:5.1f}%"))
        rows.append(("total", f"{self.total:.3f}", "100.0%"))
        widths = [max(len(r[c]) for r in rows) for c in range(3)]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths))
                 .rstrip() for row in rows]
        lines.insert(1, "  ".join("-" * w for w in widths))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        top = self.ranked()[0][0] if self.buckets else "-"
        return (f"<Attribution {self.request_id} total={self.total:.3f}s "
                f"top={top}>")


def _span_window(node: TraceSpan, fallback_end: float) -> Interval:
    end = node.end if node.end is not None else fallback_end
    return (node.start, max(end, node.start))


def _split_polling_idle(attribution: Attribution, idle: List[Interval],
                        job_id: Optional[str],
                        bus: Optional[Union[EventBus, Recorder]]) -> None:
    """Split polling-span idle time into queueing/compute/detection.

    The push path (a ``notify:await`` span) gets the same treatment,
    with one refinement: idle time between the job finishing and its
    terminal notification *arriving* is the queue's propagation delay
    in flight — ``notify/propagation`` — not middleware-side waiting.
    """
    queue_iv: Optional[Interval] = None
    run_iv: Optional[Interval] = None
    push_iv: Optional[Interval] = None
    if bus is not None and job_id:
        submit = bus.first("sched.submit", job_id=job_id)
        start = bus.first("sched.start", job_id=job_id)
        finish = bus.first("sched.finish", job_id=job_id)
        if submit is not None and start is not None:
            queue_iv = (submit.ts, start.ts)
        if start is not None:
            run_iv = (start.ts, finish.ts if finish is not None
                      else float("inf"))
        if finish is not None:
            # A job has exactly one delivery, its terminal state, and
            # it never precedes the finish.
            arrivals = [ev.ts for ev in bus.events("notify.deliver")
                        if ev.fields.get("job_id") == job_id
                        and ev.ts >= finish.ts]
            if arrivals:
                push_iv = (finish.ts, min(arrivals))
    for gap in idle:
        remaining = gap[1] - gap[0]
        if queue_iv is not None:
            waited = _overlap(gap, queue_iv)
            attribution.add("grid/queueing", waited)
            remaining -= waited
        if run_iv is not None:
            ran = _overlap(gap, run_iv)
            attribution.add("grid/compute", ran)
            remaining -= ran
        if push_iv is not None:
            in_flight = _overlap(gap, push_iv)
            attribution.add("notify/propagation", in_flight)
            remaining -= in_flight
        # Whatever idle time was neither queueing nor running (nor a
        # notification in flight) is the watchdog's detection lag
        # (sleeping past job completion, or pre-submission setup) —
        # middleware-side waiting.
        attribution.add("core/queueing", remaining)


def analyze_request(ctx: RequestContext,
                    bus: Optional[Union[EventBus, Recorder]] = None,
                    board: Optional[GaugeBoard] = None) -> Attribution:
    """Attribute *ctx*'s end-to-end latency to layer/category buckets.

    *bus* (the run's event bus, or a recorder of :data:`BUS_KINDS`)
    enables the grid-side split of polling idle time; *board* adds
    queue peaks to the result for context.
    Neither is required — without them the polling idle time lands in
    ``core/queueing`` undivided.
    """
    spans = ctx.spans()
    closed_ends = [s.end for s in spans if s.end is not None]
    root_end = max(closed_ends) if closed_ends else ctx.root.start
    root_window = (ctx.root.start, max(root_end, ctx.root.start))

    attribution = Attribution(ctx.request_id,
                              root_window[1] - root_window[0])
    attribution.span_count = len(spans)
    if board is not None:
        attribution.queue_peaks = board.peaks()

    # Depth-first, each span with the window it is *charged* for.  A
    # span's children are laid on its window back to front: the one that
    # finished last keeps its interval, the next what is left before
    # that, and so on.  Sequential children (the usual case) keep
    # exactly their own intervals; of concurrent ones — the ranges of a
    # striped stage — only the chain the parent actually waited for is
    # charged: the rest overlap it and cost the request nothing.
    fallback = root_window[1]
    stack = [(ctx.root, root_window)]
    while stack:
        node, window = stack.pop()
        cursor = window[1]
        charged: Dict[int, Interval] = {}
        spans = [(child, _span_window(child, fallback))
                 for child in node.children]
        for child, (start, end) in sorted(spans, key=lambda s: s[1][1],
                                          reverse=True):
            start, end = max(start, window[0]), min(end, cursor)
            if end > start:
                charged[id(child)] = (start, end)
                cursor = start
        self_intervals = _complement(window, _merge(list(charged.values())))
        if node.name in ("service:polling", "notify:await"):
            _split_polling_idle(attribution, self_intervals,
                                node.meta.get("job"), bus)
        else:
            bucket = _classify(node.name)
            attribution.add(
                bucket, sum(b - a for a, b in self_intervals))
        # Trace order: the stack pops what was pushed last.
        stack.extend((child, charged[id(child)])
                     for child in reversed(node.children)
                     if id(child) in charged)
    return attribution
