"""The interceptor pipeline both SOAP endpoints run requests through.

This is the unified request fabric's dispatch spine: instead of each
entry point hand-rolling its own metrics, fault translation and
bookkeeping, :class:`SoapServer` and :class:`WsClient` both push every
request through a :class:`Pipeline` of :class:`Interceptor` objects
around a *terminal* (the actual handler dispatch on the server, the
transport on the client).

Interceptors are generator-based so they can bracket simulated time:
``call_next(inv)`` returns a generator the interceptor drives with
``yield from``, seeing the request on the way in and the result (or
exception) on the way out — the classic JAX-WS/Axis2 handler-chain
shape, which JClarens-style grid containers rely on for cross-cutting
concerns.

Built-ins (in the order a server installs them, outermost first):

* :class:`FaultTranslationInterceptor` — the one place exceptions become
  SOAP fault envelopes (previously duplicated at every dispatch site),
* :class:`MetricsInterceptor` — per-service/per-operation latency
  histograms + fault counters feeding
  :class:`repro.telemetry.MetricsRegistry`,
* :class:`AdmissionControlInterceptor` — per-service concurrency caps
  with queue-or-reject (the first real scalability lever, §VIII.D),
* :class:`TracingInterceptor` — sim-time spans in the request's
  :class:`~repro.core.context.RequestContext` trace tree,
* :class:`DeadlineInterceptor` — rejects work whose deadline already
  passed, so timeouts propagate across every hop.

Determinism: with default settings no interceptor creates simulation
events or consumes simulated time, so wiring the pipeline in cannot
perturb a scenario's series.  Only admission *queueing* (opt-in) waits
on events — deterministically FIFO.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any, Callable, Deque, Dict, Generator, List, Optional, TYPE_CHECKING,
)

from repro.core.context import RequestContext
from repro.errors import ReproError, SoapFault
from repro.telemetry.events import bus
from repro.telemetry.gauges import gauges
from repro.telemetry.metrics import MetricsRegistry
from repro.ws.soap import SoapEnvelope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.kernel import Simulator

__all__ = [
    "Invocation", "Interceptor", "Pipeline",
    "FaultTranslationInterceptor", "MetricsInterceptor",
    "AdmissionControlInterceptor", "TracingInterceptor",
    "DeadlineInterceptor",
]

#: A pipeline stage's continuation: invocation -> result generator.
Continuation = Callable[["Invocation"], Generator]


class Invocation:
    """One request travelling the pipeline."""

    __slots__ = ("ctx", "service_name", "operation", "params", "side",
                 "request_bytes", "terminal")

    def __init__(self, ctx: Optional[RequestContext], service_name: str,
                 operation: str, params: Dict[str, Any], side: str,
                 request_bytes: int = 0):
        self.ctx = ctx
        self.service_name = service_name
        self.operation = operation
        self.params = params
        #: ``"client"`` or ``"server"`` — which end of the wire runs us.
        self.side = side
        #: Encoded request envelope size (server side; 0 on the client).
        self.request_bytes = request_bytes
        #: Innermost continuation, bound per request by :meth:`Pipeline.run`
        #: (riding on the invocation keeps the composed chain reusable).
        self.terminal: Optional[Continuation] = None

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        rid = self.ctx.request_id if self.ctx else "-"
        return (f"<Invocation {self.side} {self.service_name}."
                f"{self.operation} {rid}>")


class Interceptor:
    """Base class: pass-through.  Override :meth:`invoke`."""

    #: Short name used in traces and repr.
    name = "interceptor"

    def invoke(self, inv: Invocation,
               call_next: Continuation) -> Generator:
        return (yield from call_next(inv))

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<{type(self).__name__}>"


class Pipeline:
    """An ordered interceptor chain shared by every request of one side."""

    def __init__(self, interceptors: Optional[List[Interceptor]] = None):
        self.interceptors: List[Interceptor] = list(interceptors or [])
        self._chain: Optional[Continuation] = None
        self._chain_len = -1

    def add(self, interceptor: Interceptor) -> "Pipeline":
        """Append an interceptor (innermost position); returns self."""
        self.interceptors.append(interceptor)
        self._chain = None
        return self

    def find(self, cls: type) -> Optional[Interceptor]:
        """The first installed interceptor of *cls*, if any."""
        for icp in self.interceptors:
            if isinstance(icp, cls):
                return icp
        return None

    def run(self, inv: Invocation, terminal: Continuation) -> Generator:
        """The full chain around *terminal*, as one generator.

        Drive it with ``yield from`` inside a simulation process.  The
        interceptor chain is composed once and reused for every request
        (rebuilt by :meth:`add`); *terminal* rides on the invocation so
        concurrent requests with different terminals cannot collide.
        """
        if self._chain is None or len(self.interceptors) != self._chain_len:
            self._chain = self._compose()
        inv.terminal = terminal
        return self._chain(inv)

    def _compose(self) -> Continuation:
        def tail(inv: Invocation) -> Generator:
            return (yield from inv.terminal(inv))
        call: Continuation = tail
        for icp in reversed(self.interceptors):
            def stage(inv: Invocation, _icp: Interceptor = icp,
                      _next: Continuation = call) -> Generator:
                return (yield from _icp.invoke(inv, _next))
            call = stage
        self._chain_len = len(self.interceptors)
        return call

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        names = [type(i).__name__ for i in self.interceptors]
        return f"<Pipeline {' -> '.join(names) or '(empty)'}>"


# ---------------------------------------------------------------------------
# Built-in interceptors
# ---------------------------------------------------------------------------

class FaultTranslationInterceptor(Interceptor):
    """Exceptions -> SOAP fault envelopes, in exactly one place.

    A SOAP container never lets implementation errors kill the
    connection: library errors keep their type in the fault detail,
    unexpected ones are marked ``Server.Internal``.  *on_fault* (if
    given) is called with the invocation — the server uses it to keep
    its per-service fault counters.
    """

    name = "fault"

    def __init__(self, on_fault: Optional[Callable[[Invocation], None]] = None):
        self.on_fault = on_fault

    def invoke(self, inv: Invocation, call_next: Continuation) -> Generator:
        try:
            return (yield from call_next(inv))
        except SoapFault as fault:
            if self.on_fault is not None:
                self.on_fault(inv)
            return SoapEnvelope.fault_response(fault)
        except Exception as exc:
            if self.on_fault is not None:
                self.on_fault(inv)
            code = "Server" if isinstance(exc, ReproError) else "Server.Internal"
            # The detail carries the root cause's type *and* message —
            # "TypeName: message" — so the client side can classify the
            # fault (SoapFault.root_cause / .retryable) without the
            # original object; the exception itself is chained on for
            # in-process callers and debuggability.
            message = str(exc)
            fault = SoapFault(
                faultcode=code,
                faultstring=message or type(exc).__name__,
                detail=(f"{type(exc).__name__}: {message}" if message
                        else type(exc).__name__),
            )
            fault.__cause__ = exc
            return SoapEnvelope.fault_response(fault)


class MetricsInterceptor(Interceptor):
    """Latency + fault accounting per (service, operation).

    Besides the histogram registry, every completed crossing is emitted
    on the simulator's :class:`~repro.telemetry.events.EventBus` as a
    ``ws.request`` event (service, operation, side, latency, fault,
    request id, origin host) — the bus record that lets downstream
    analysis join a SOAP request with the grid activity it caused, and
    attribute server-side load to the replica (*origin*) that served
    it.  Emission is pure bookkeeping: no simulation events, no
    simulated time.
    """

    name = "metrics"

    def __init__(self, sim: "Simulator",
                 registry: Optional[MetricsRegistry] = None,
                 side: str = "server", origin: Optional[str] = None):
        self.sim = sim
        self.registry = registry if registry is not None \
            else MetricsRegistry(name=side)
        #: Name of the host this pipeline end runs on (the replica name
        #: on a sharded server side) — ``None`` when the owner predates
        #: fleet attribution or has no host.
        self.origin = origin
        self.bus = bus(sim)

    def _emit(self, inv: Invocation, latency: float,
              fault: Optional[str]) -> None:
        ctx = inv.ctx
        self.bus.emit("ws.request", layer="ws",
                      request_id=ctx.request_id if ctx else None,
                      service=inv.service_name, operation=inv.operation,
                      side=inv.side, latency=latency, fault=fault,
                      origin=self.origin)

    def invoke(self, inv: Invocation, call_next: Continuation) -> Generator:
        started = self.sim.now
        try:
            result = yield from call_next(inv)
        except SoapFault as fault:
            self.registry.record(inv.service_name, inv.operation,
                                 self.sim.now - started,
                                 fault=fault.faultcode)
            self._emit(inv, self.sim.now - started, fault.faultcode)
            raise
        except Exception as exc:
            self.registry.record(inv.service_name, inv.operation,
                                 self.sim.now - started,
                                 fault=type(exc).__name__)
            self._emit(inv, self.sim.now - started, type(exc).__name__)
            raise
        self.registry.record(inv.service_name, inv.operation,
                             self.sim.now - started)
        self._emit(inv, self.sim.now - started, None)
        return result


class _ServiceAdmission:
    """Book-keeping of one service's concurrency gate."""

    __slots__ = ("in_flight", "peak", "admitted", "rejected", "queued",
                 "waiters")

    def __init__(self) -> None:
        self.in_flight = 0
        self.peak = 0
        self.admitted = 0
        self.rejected = 0
        self.queued = 0
        self.waiters: Deque = deque()


class AdmissionControlInterceptor(Interceptor):
    """Per-service concurrency cap with queue-or-reject.

    Unconfigured services pass straight through (no events, no cost).
    With a cap set, excess requests either fault immediately with
    ``Server.Busy`` (reject mode) or wait FIFO on a deterministic event
    queue until a slot frees (queue mode, bounded by *max_queue*).
    """

    name = "admission"

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._policies: Dict[str, Dict[str, Any]] = {}
        self._states: Dict[str, _ServiceAdmission] = {}
        self._board = gauges(sim)

    def set_policy(self, service_name: str, max_concurrent: Optional[int],
                   queue: bool = False,
                   max_queue: Optional[int] = None) -> None:
        """Cap *service_name* at *max_concurrent* in-flight requests.

        ``max_concurrent=None`` removes the cap.
        """
        if max_concurrent is None:
            self._policies.pop(service_name, None)
            return
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        self._policies[service_name] = {
            "max_concurrent": max_concurrent,
            "queue": queue,
            "max_queue": max_queue,
        }

    def stats(self, service_name: str) -> _ServiceAdmission:
        state = self._states.get(service_name)
        if state is None:
            state = self._states[service_name] = _ServiceAdmission()
        return state

    def invoke(self, inv: Invocation, call_next: Continuation) -> Generator:
        policy = self._policies.get(inv.service_name)
        if policy is None:
            return (yield from call_next(inv))
        state = self.stats(inv.service_name)
        cap = policy["max_concurrent"]
        queue_gauge = self._board.gauge(
            f"admission.{inv.service_name}.queue", unit="reqs")
        while state.in_flight >= cap:
            max_queue = policy["max_queue"]
            if not policy["queue"] or (max_queue is not None
                                       and len(state.waiters) >= max_queue):
                state.rejected += 1
                raise SoapFault(
                    faultcode="Server.Busy",
                    faultstring=(f"service {inv.service_name!r} is at its "
                                 f"concurrency limit ({cap})"),
                    detail="AdmissionReject")
            slot = self.sim.event(f"admission:{inv.service_name}")
            state.waiters.append(slot)
            state.queued += 1
            queue_gauge.set(len(state.waiters))
            try:
                yield slot  # woken FIFO when a slot frees; then re-check
            finally:
                queue_gauge.set(len(state.waiters))
        state.in_flight += 1
        state.peak = max(state.peak, state.in_flight)
        state.admitted += 1
        try:
            return (yield from call_next(inv))
        finally:
            state.in_flight -= 1
            if state.waiters:
                state.waiters.popleft().succeed()


class TracingInterceptor(Interceptor):
    """One trace span per pipeline crossing (``side:Service.operation``)."""

    name = "tracing"

    def invoke(self, inv: Invocation, call_next: Continuation) -> Generator:
        ctx = inv.ctx
        if ctx is None:
            return (yield from call_next(inv))
        span = ctx.begin_span(
            f"{inv.side}:{inv.service_name}.{inv.operation}")
        try:
            result = yield from call_next(inv)
        except Exception as exc:
            span.meta["error"] = type(exc).__name__
            raise
        finally:
            ctx.end_span(span)
        return result


class DeadlineInterceptor(Interceptor):
    """Refuse work whose context deadline has already passed.

    The deadline travels in the :class:`RequestContext`, so one check
    per hop is enough to propagate a timeout across portal → SOAP →
    agent → grid without any layer knowing about the others.
    """

    name = "deadline"

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.expirations = 0

    def invoke(self, inv: Invocation, call_next: Continuation) -> Generator:
        ctx = inv.ctx
        if ctx is not None and ctx.deadline is not None \
                and self.sim.now > ctx.deadline:
            self.expirations += 1
            raise SoapFault(
                faultcode="Server.DeadlineExceeded" if inv.side == "server"
                else "Client.DeadlineExceeded",
                faultstring=(f"deadline {ctx.deadline:.3f}s passed before "
                             f"{inv.service_name}.{inv.operation} "
                             f"dispatched (now={self.sim.now:.3f}s)"),
                detail="DeadlineExceeded")
        return (yield from call_next(inv))
