"""One SOAP crossing: the straight-line step both endpoints run.

:class:`SoapServer` and :class:`WsClient` push every request through
:func:`cross` around a *terminal* (the handler dispatch on the server,
the wire round-trip on the client).  In order, a crossing

1. opens a ``side:Service.operation`` span in the request's
   :class:`~repro.core.context.RequestContext` trace tree, if there is
   a context;
2. refuses work whose context deadline already passed, so one check per
   hop propagates a timeout across portal → SOAP → agent → grid;
3. runs the terminal;
4. closes the span, marking ``error`` on any exception;
5. emits exactly one ``ws.request`` event on the simulator's
   :class:`~repro.telemetry.events.EventBus` (request id, service,
   operation, side, latency, fault, origin host) — the one record of
   the crossing, which lets analysis join a SOAP request with the grid
   activity it caused and attribute server-side load to the replica
   (*origin*) that served it.

The server wraps the crossing in the one place exceptions become SOAP
fault envelopes (:func:`soap_fault` builds the fault, which the router
reuses for its own errors); the client lets faults raise in the
caller.  A crossing creates no simulation events and consumes no
simulated time, so it cannot perturb a scenario's series.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional

from repro.core.context import RequestContext
from repro.errors import ReproError, SoapFault
from repro.telemetry.events import EventBus

__all__ = ["Invocation", "cross", "soap_fault"]


class Invocation:
    """One request crossing a SOAP endpoint."""

    __slots__ = ("ctx", "service_name", "operation", "params", "side")

    def __init__(self, ctx: Optional[RequestContext], service_name: str,
                 operation: str, params: Dict[str, Any], side: str):
        self.ctx = ctx
        self.service_name = service_name
        self.operation = operation
        self.params = params
        #: ``"client"`` or ``"server"`` — which end of the wire runs us.
        self.side = side


def cross(events: EventBus, origin: Optional[str], inv: Invocation,
          terminal: Callable[[Invocation], Generator]) -> Generator:
    """Span, deadline, *terminal*, one ``ws.request`` — as one generator.

    Drive it with ``yield from`` inside a simulation process.  *origin*
    names the host this end runs on (the replica on a sharded server).
    """
    sim = events.sim
    started = sim.now
    ctx = inv.ctx
    try:
        if ctx is None:
            result = yield from terminal(inv)
        else:
            span = ctx.begin_span(
                f"{inv.side}:{inv.service_name}.{inv.operation}")
            try:
                if ctx.deadline is not None and sim.now > ctx.deadline:
                    raise SoapFault(
                        faultcode="Server.DeadlineExceeded"
                        if inv.side == "server"
                        else "Client.DeadlineExceeded",
                        faultstring=(
                            f"deadline {ctx.deadline:.3f}s passed before "
                            f"{inv.service_name}.{inv.operation} "
                            f"dispatched (now={sim.now:.3f}s)"),
                        detail="DeadlineExceeded")
                result = yield from terminal(inv)
            except Exception as exc:
                span.meta["error"] = type(exc).__name__
                raise
            finally:
                ctx.end_span(span)
    except Exception as exc:
        _emit(events, origin, inv, sim.now - started,
              exc.faultcode if isinstance(exc, SoapFault)
              else type(exc).__name__)
        raise
    _emit(events, origin, inv, sim.now - started, None)
    return result


def _emit(events: EventBus, origin: Optional[str], inv: Invocation,
          latency: float, fault: Optional[str]) -> None:
    ctx = inv.ctx
    events.emit("ws.request", layer="ws",
                request_id=ctx.request_id if ctx else None,
                service=inv.service_name, operation=inv.operation,
                side=inv.side, latency=latency, fault=fault, origin=origin)


def soap_fault(exc: Exception) -> SoapFault:
    """*exc* as the SOAP fault a container answers with.

    A SOAP container never lets implementation errors kill the
    connection: library errors keep their type in the fault detail,
    unexpected ones are marked ``Server.Internal``.
    """
    if isinstance(exc, SoapFault):
        return exc
    code = "Server" if isinstance(exc, ReproError) else "Server.Internal"
    # The detail carries the root cause's type *and* message —
    # "TypeName: message" — so the client side can classify the fault
    # (SoapFault.root_cause / .retryable) without the original object;
    # the exception itself is chained on for in-process callers and
    # debuggability.
    message = str(exc)
    fault = SoapFault(
        faultcode=code,
        faultstring=message or type(exc).__name__,
        detail=(f"{type(exc).__name__}: {message}" if message
                else type(exc).__name__),
    )
    fault.__cause__ = exc
    return fault
