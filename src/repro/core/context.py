"""The request fabric's carrier object: :class:`RequestContext`.

Every entry point into the stack — a portal form submission, a SOAP
client invoke, a shell command, a mediator task — creates one
``RequestContext`` and threads it through every layer it touches
(``ws.server`` → ``core`` → ``cyberaide.agent`` → ``grid``).  The
context carries:

* a **request id**, unique per simulator run (deterministic counter),
* the **principal** on whose behalf the request runs,
* an optional absolute **deadline** in simulated seconds, checked by
  each SOAP crossing along the way,
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
import weakref
from typing import Any, Dict, Iterator, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.kernel import Simulator

__all__ = ["TraceSpan", "RequestContext", "span"]


class TraceSpan:
    """One timed operation inside a request's trace tree.

    The tree owns downward only: a span holds its ``children`` and
    reaches its parent through a weak reference, so a finished request's
    spans form no reference cycle and are freed the moment the last
    holder of the root lets go, without waiting for the cyclic
    collector.
    """

    __slots__ = ("name", "start", "end", "_parent", "children", "meta",
                 "__weakref__")

    def __init__(self, name: str, start: float,
                 parent: Optional["TraceSpan"] = None):
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.children: List["TraceSpan"] = []
        self.meta: Dict[str, Any] = {}
        if parent is None:
            self._parent = None
        else:
            self._parent = weakref.ref(parent)
            parent.children.append(self)

    @property
    def parent(self) -> Optional["TraceSpan"]:
        """The enclosing span (None at the root), for as long as anything
        holds the trace's root."""
        ref = self._parent
        return None if ref is None else ref()

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

    def copy_to(self, parent: "TraceSpan") -> "TraceSpan":
        """A copy of this subtree, hung under *parent*: how a request
        that waited on work another trace recorded (a seed it joined)
        takes that work's spans into its own tree."""
        twin = TraceSpan(self.name, self.start, parent=parent)
        twin.end = self.end
        twin.meta.update(self.meta)
        for child in self.children:
            child.copy_to(twin)
        return twin

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


class span:
    """``with span(ctx, name, **meta) as node:`` — open a trace span if
    *ctx* is present; a no-op (``node`` is None) otherwise.

    Safe to use inside simulation-process generators: the span brackets
    the sim-time interval the enclosed code takes, including its yields,
    and closes however the block is left.  A plain class rather than a
    ``@contextmanager`` generator: a request opens dozens, and each of
    those costs a generator and its wrapper.
    """

    __slots__ = ("ctx", "name", "meta", "node")

    def __init__(self, ctx: Optional[RequestContext], name: str,
                 **meta: Any):
        self.ctx = ctx
        self.name = name
        self.meta = meta
        self.node: Optional[TraceSpan] = None

    def __enter__(self) -> Optional[TraceSpan]:
        if self.ctx is not None:
            self.node = self.ctx.begin_span(self.name, **self.meta)
        return self.node

    def __exit__(self, *exc: Any) -> None:
        if self.node is not None:
            self.ctx.end_span(self.node)
