"""The request fabric's carrier object: :class:`RequestContext`.

Every entry point into the stack — a portal form submission, a SOAP
client invoke, a shell command, a mediator task — creates one
``RequestContext`` and threads it through every layer it touches
(``ws.server`` → ``core`` → ``cyberaide.agent`` → ``grid``).  The
context carries:

* a **request id**, unique per simulator run (deterministic counter),
* the **principal** on whose behalf the request runs,
* an optional absolute **deadline** in simulated seconds, checked by the
  deadline interceptor at every dispatch point along the way,
* a **trace**: a tree of sim-time spans, dumpable as a per-request
  waterfall covering every layer the request crossed, and
* a **baggage** dict for request-scoped key/values that must survive
  layer boundaries.

Nothing here creates simulation events or consumes simulated time:
attaching a context to a run cannot change its timing, which is what
keeps the figure scenarios byte-identical with tracing on.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.kernel import Simulator

__all__ = ["TraceSpan", "RequestContext", "span"]


class TraceSpan:
    """One timed operation inside a request's trace tree."""

    __slots__ = ("name", "start", "end", "parent", "children", "meta")

    def __init__(self, name: str, start: float,
                 parent: Optional["TraceSpan"] = None):
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.children: List["TraceSpan"] = []
        self.meta: Dict[str, Any] = {}
        if parent is not None:
            parent.children.append(self)

    @property
    def duration(self) -> float:
        """Span length in simulated seconds (0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def closed(self) -> bool:
        return self.end is not None

    def walk(self) -> Iterator[tuple[int, "TraceSpan"]]:
        """Depth-first (depth, span) traversal of this subtree."""
        stack: List[tuple[int, TraceSpan]] = [(0, self)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            for child in reversed(node.children):
                stack.append((depth + 1, child))

    def find(self, name: str) -> Optional["TraceSpan"]:
        """First span named *name* in this subtree (depth-first)."""
        for _, node in self.walk():
            if node.name == name:
                return node
        return None

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        state = f"{self.duration:.3f}s" if self.closed else "open"
        return f"<TraceSpan {self.name!r} {state}>"


class RequestContext:
    """Request id + principal + deadline + trace, threaded everywhere."""

    __slots__ = ("sim", "request_id", "principal", "deadline", "baggage",
                 "root", "_stack")

    def __init__(self, sim: "Simulator", request_id: str,
                 principal: str = "anonymous",
                 deadline: Optional[float] = None,
                 baggage: Optional[Dict[str, Any]] = None):
        self.sim = sim
        self.request_id = request_id
        self.principal = principal
        #: Absolute simulated time after which the request is dead.
        self.deadline = deadline
        self.baggage: Dict[str, Any] = dict(baggage or {})
        self.root = TraceSpan(f"request:{request_id}", sim.now)
        self._stack: List[TraceSpan] = [self.root]

    # -- construction -------------------------------------------------------

    @classmethod
    def create(cls, sim: "Simulator", principal: str = "anonymous",
               deadline: Optional[float] = None,
               baggage: Optional[Dict[str, Any]] = None) -> "RequestContext":
        """Mint a context with the simulator's next request id.

        The id counter lives on the simulator instance so ids are
        deterministic per run and reset with every fresh simulator.
        """
        seq = getattr(sim, "_request_seq", 0) + 1
        sim._request_seq = seq  # type: ignore[attr-defined]
        return cls(sim, f"req-{seq:06d}", principal=principal,
                   deadline=deadline, baggage=baggage)

    def child(self, principal: Optional[str] = None) -> "RequestContext":
        """A derived context: fresh id, same deadline/baggage, own trace.

        Used where a component fans work out on behalf of a request but
        wants separately collectable traces (e.g. mediator tasks).
        """
        ctx = RequestContext.create(self.sim,
                                    principal=principal or self.principal,
                                    deadline=self.deadline,
                                    baggage=self.baggage)
        ctx.baggage["parent_request"] = self.request_id
        return ctx

    def fork(self) -> "RequestContext":
        """This request, for a branch that runs *beside* the caller.

        Same id, principal, deadline, baggage and trace tree, but its
        own stack of open spans rooted at the caller's innermost one:
        spans the branch opens nest under each other instead of under
        whatever a concurrent sibling happens to have open.
        """
        branch = copy.copy(self)
        branch._stack = [self._stack[-1] if self._stack else self.root]
        return branch

    # -- deadline -----------------------------------------------------------

    @property
    def expired(self) -> bool:
        """True once the simulated clock has passed the deadline."""
        return self.deadline is not None and self.sim.now > self.deadline

    @property
    def remaining(self) -> float:
        """Seconds until the deadline (``inf`` when none is set)."""
        if self.deadline is None:
            return float("inf")
        return self.deadline - self.sim.now

    # -- trace spans --------------------------------------------------------

    def begin_span(self, name: str, **meta: Any) -> TraceSpan:
        """Open a child span under the innermost open span."""
        parent = self._stack[-1] if self._stack else self.root
        span_ = TraceSpan(name, self.sim.now, parent=parent)
        span_.meta.update(meta)
        self._stack.append(span_)
        return span_

    def end_span(self, span_: TraceSpan) -> None:
        """Close *span_* (tolerates out-of-order closes from interleaving)."""
        if span_.end is None:
            span_.end = self.sim.now
        if span_ in self._stack:
            self._stack.remove(span_)

    def spans(self) -> List[TraceSpan]:
        """Every span of the trace, depth-first."""
        return [node for _, node in self.root.walk()]

    def waterfall(self) -> str:
        """The trace as an indented per-request waterfall (sim seconds)."""
        t0 = self.root.start
        lines = [f"trace {self.request_id} (principal={self.principal})"]
        for depth, node in self.root.walk():
            if node is self.root:
                continue
            end = node.end if node.end is not None else self.sim.now
            mark = "" if node.closed else " (open)"
            extra = "".join(f" {k}={v}" for k, v in sorted(node.meta.items()))
            lines.append(
                f"  {'  ' * (depth - 1)}{node.start - t0:9.3f}s "
                f"+{end - node.start:8.3f}s  {node.name}{extra}{mark}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (f"<RequestContext {self.request_id} "
                f"principal={self.principal!r} spans={len(self.spans())}>")


@contextmanager
def span(ctx: Optional[RequestContext], name: str, **meta: Any):
    """Open a trace span if *ctx* is present; no-op otherwise.

    Safe to use inside simulation-process generators: the span brackets
    the sim-time interval the enclosed code takes, including its yields.
    """
    if ctx is None:
        yield None
        return
    span_ = ctx.begin_span(name, **meta)
    try:
        yield span_
    finally:
        ctx.end_span(span_)
