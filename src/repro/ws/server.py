"""The SOAP server: service deployment and request dispatch.

A :class:`SoapServer` lives on a simulated host (the appliance's Tomcat
stand-in).  Services are deployed with a
:class:`~repro.ws.registryapi.ServiceDescription` plus a *handler*
callable; invocations are full simulation processes that

1. move the request envelope's encoded size over the network (the size
   is computed, the envelope never rendered — ``SoapEnvelope.size``),
2. charge the server CPU for parsing/dispatch (scaled by message size),
3. run the request through the server's interceptor
   :class:`~repro.ws.pipeline.Pipeline` (fault translation, metrics,
   admission control, tracing, deadline) around the handler dispatch,
4. run the handler (which may itself be a simulation process — the
   generated GridService handler submits grid jobs and takes minutes),
5. move the response (or fault) envelope's size back to the client.

:class:`SoapFabric` is the name service mapping ``soap://host/Service``
endpoints to server objects, standing in for DNS+TCP connection setup.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.core.context import RequestContext
from repro.errors import ServiceNotFound, SoapFault, WsError
from repro.hardware.host import Host
from repro.simkernel.events import Event
from repro.simkernel.process import Process
from repro.telemetry.metrics import MetricsRegistry
from repro.units import KB
from repro.ws.pipeline import (
    AdmissionControlInterceptor, DeadlineInterceptor,
    FaultTranslationInterceptor, Invocation, MetricsInterceptor, Pipeline,
    TracingInterceptor,
)
from repro.ws.registryapi import ServiceDescription
from repro.ws.soap import SoapEnvelope
from repro.ws.wsdl import generate_wsdl

__all__ = ["SoapFabric", "SoapServer", "DeployedService"]

#: Handler signature: ``(operation_name, arguments)`` or, for
#: context-aware handlers, ``(operation_name, arguments, ctx)``
#: -> value | generator.
Handler = Callable[..., Any]


def _handler_wants_context(handler: Handler) -> bool:
    """True if *handler* accepts the request context as a third argument.

    Decided once at deploy time so the per-request dispatch stays a
    plain call.  Existing two-argument handlers keep working unchanged.
    """
    try:
        sig = inspect.signature(handler)
    except (TypeError, ValueError):  # builtins without signatures
        return False
    positional = 0
    for param in sig.parameters.values():
        if param.kind == param.VAR_POSITIONAL:
            return True
        if param.name == "ctx":
            return True
        if param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD):
            positional += 1
    return positional >= 3


class SoapFabric:
    """Endpoint resolution: ``soap://<host>/<Service>`` -> server object."""

    SCHEME = "soap://"

    def __init__(self) -> None:
        self._servers: Dict[str, "SoapServer"] = {}

    def register(self, server: "SoapServer") -> None:
        if server.host.name in self._servers:
            raise WsError(f"a SOAP server is already bound on {server.host.name!r}")
        self._servers[server.host.name] = server

    def unregister(self, server: "SoapServer") -> None:
        self._servers.pop(server.host.name, None)

    def resolve(self, endpoint: str) -> Tuple["SoapServer", str]:
        """Split an endpoint URL into (server, service_name)."""
        if not endpoint.startswith(self.SCHEME):
            raise WsError(f"bad endpoint {endpoint!r}")
        rest = endpoint[len(self.SCHEME):]
        if "/" not in rest:
            raise WsError(f"endpoint {endpoint!r} lacks a service path")
        hostname, service = rest.split("/", 1)
        if not service:
            raise WsError(f"endpoint {endpoint!r} has an empty service path")
        server = self._servers.get(hostname)
        if server is None:
            raise ServiceNotFound(f"no SOAP server on host {hostname!r}")
        return server, service


class DeployedService:
    """A live service on a server."""

    __slots__ = ("_description", "handler", "deployed_at", "invocations",
                 "faults", "wants_context", "_wsdl")

    def __init__(self, description: ServiceDescription, handler: Handler,
                 deployed_at: float):
        self.description = description
        self.handler = handler
        self.deployed_at = deployed_at
        self.invocations = 0
        self.faults = 0
        self.wants_context = _handler_wants_context(handler)

    @property
    def description(self) -> ServiceDescription:
        return self._description

    @description.setter
    def description(self, description: ServiceDescription) -> None:
        # Descriptions are immutable, so swapping one (hot redeploy) is
        # the only thing that can stale a rendered document.
        self._description = description
        self._wsdl: Dict[str, bytes] = {}

    def wsdl(self, endpoint: str) -> bytes:
        """The WSDL document advertising *endpoint*, rendered once.

        One service can be advertised under several endpoints — its
        replica's own and the router's — each with its own document.
        """
        document = self._wsdl.get(endpoint)
        if document is None:
            document = self._wsdl[endpoint] = generate_wsdl(
                self.description, endpoint)
        return document


class SoapServer:
    """A SOAP service container on one host."""

    #: CPU seconds to parse+dispatch one KB of envelope (streaming XML
    #: parsers handle ~5 MB/s of base64-heavy payload per core).
    PARSE_CPU_PER_KB = 0.0002
    #: Fixed CPU per request (container overhead: thread, session, ...).
    DISPATCH_CPU = 0.01

    def __init__(self, host: Host, fabric: Optional[SoapFabric] = None,
                 name: str = "soap"):
        self.host = host
        self.sim = host.sim
        self.name = name
        self.fabric = fabric
        if fabric is not None:
            fabric.register(self)
        self._services: Dict[str, DeployedService] = {}
        self._undeploy_listeners: List[Callable[[str], None]] = []
        self.requests_served = 0
        #: Per-operation latency/fault metrics, fed by the pipeline.
        self.metrics = MetricsRegistry(name=f"{name}@{host.name}")
        self.admission = AdmissionControlInterceptor(self.sim)
        #: The server-side interceptor chain every request runs through.
        #: Fault translation sits outermost so any exception — including
        #: admission rejects and deadline expirations — still becomes a
        #: fault envelope that travels back over the wire.
        self.pipeline = Pipeline([
            FaultTranslationInterceptor(
                on_fault=lambda inv: self._count_fault(inv.service_name)),
            MetricsInterceptor(self.sim, registry=self.metrics,
                               origin=host.name),
            self.admission,
            TracingInterceptor(),
            DeadlineInterceptor(self.sim),
        ])

    # -- deployment -----------------------------------------------------------

    def deploy(self, description: ServiceDescription, handler: Handler) -> str:
        """Deploy a service; returns its endpoint URL."""
        if description.name in self._services:
            raise WsError(f"service {description.name!r} already deployed")
        self._services[description.name] = DeployedService(
            description, handler, self.sim.now)
        return self.endpoint_for(description.name)

    def undeploy(self, service_name: str) -> None:
        if service_name not in self._services:
            raise ServiceNotFound(f"service {service_name!r} not deployed")
        del self._services[service_name]
        for listener in list(self._undeploy_listeners):
            listener(service_name)

    def update_description(self, service_name: str,
                           description: ServiceDescription) -> None:
        """Swap a deployed service's interface in place (hot redeploy).

        The replacement-upload path uses this when a re-uploaded
        executable declares a new description or parameter spec: the
        handler, endpoint and usage counters survive, but dispatch
        validation and the generated WSDL reflect the new interface
        immediately.
        """
        svc = self.service(service_name)
        if description.name != service_name:
            raise WsError(
                f"cannot redeploy {service_name!r} under the name "
                f"{description.name!r}")
        svc.description = description

    def on_undeploy(self, listener: Callable[[str], None]) -> None:
        """Register *listener(service_name)* to run after each undeploy.

        Teardown cleanup (UDDI unpublish, registry erasure) hangs off
        this hook so it happens no matter which path undeploys the
        service — previously a direct :meth:`undeploy` left stale UDDI
        bindingTemplates behind.
        """
        self._undeploy_listeners.append(listener)

    def endpoint_for(self, service_name: str) -> str:
        return f"{SoapFabric.SCHEME}{self.host.name}/{service_name}"

    def services(self) -> list[str]:
        return sorted(self._services)

    def service(self, name: str) -> DeployedService:
        svc = self._services.get(name)
        if svc is None:
            raise ServiceNotFound(
                f"service {name!r} not deployed on {self.host.name!r}")
        return svc

    def wsdl(self, service_name: str) -> bytes:
        """The WSDL document for a deployed service."""
        return self.service(service_name).wsdl(
            self.endpoint_for(service_name))

    # -- invocation ---------------------------------------------------------------

    def invoke_from(self, client: Host, service_name: str, operation: str,
                    params: Dict[str, Any],
                    ctx: Optional[RequestContext] = None) -> Process:
        """Invoke ``service.operation(params)`` from *client*.

        Returns a simulation process whose value is the operation's
        return value; SOAP faults raise :class:`SoapFault` in the caller.
        (:class:`~repro.ws.client.WsClient` wraps :meth:`transport` in
        its own pipeline instead, so client-side interceptors run too.)
        """
        return self.sim.process(
            self.transport(client, service_name, operation, params, ctx),
            name=f"invoke:{service_name}.{operation}")

    def transport(self, client: Host, service_name: str, operation: str,
                  params: Dict[str, Any],
                  ctx: Optional[RequestContext] = None,
                  ) -> Generator[Event, None, Any]:
        """The wire round-trip, as a generator for embedding in a process:

        size + send the request envelope, serve it on this host, send
        the response back, unwrap it (raising the fault, if any).
        """
        request = SoapEnvelope.request(operation, params,
                                       namespace=f"urn:repro:{service_name}")
        request_bytes = request.size()
        yield client.send(self.host, request_bytes,
                          label=f"soap-req:{service_name}.{operation}")
        response = yield self.sim.process(
            self._serve(request_bytes, service_name, operation, params, ctx))
        yield self.host.send(client, response.size(),
                             label=f"soap-rsp:{service_name}.{operation}")
        return response.result()  # raises the fault, if any

    def _serve(self, request_bytes: int, service_name: str, operation: str,
               params: Dict[str, Any],
               ctx: Optional[RequestContext] = None,
               ) -> Generator[Event, None, SoapEnvelope]:
        """Server-side half: parse, then pipeline around the dispatch.

        Always returns an envelope — the outermost fault-translation
        interceptor turns any exception into a fault envelope, which
        travels back over the network like a regular response.
        """
        yield self.host.compute(
            self.DISPATCH_CPU + self.PARSE_CPU_PER_KB * request_bytes / KB(1),
            tag="soap")
        self.requests_served += 1
        inv = Invocation(ctx, service_name, operation, params, side="server",
                         request_bytes=request_bytes)
        return (yield from self.pipeline.run(inv, self._dispatch))

    def _dispatch(self, inv: Invocation) -> Generator[Event, None, SoapEnvelope]:
        """Pipeline terminal: validate, run the handler, build the response."""
        svc = self.service(inv.service_name)
        spec = svc.description.operation(inv.operation)
        spec.validate_arguments(inv.params)
        svc.invocations += 1
        if svc.wants_context:
            result = svc.handler(inv.operation, dict(inv.params), inv.ctx)
        else:
            result = svc.handler(inv.operation, dict(inv.params))
        if inspect.isgenerator(result):
            result = yield self.sim.process(
                result, name=f"handler:{inv.service_name}.{inv.operation}")
        response = SoapEnvelope.response(inv.operation, result)
        # A result the codec cannot carry must fail here, inside the
        # pipeline, so it travels back as a counted fault envelope.  The
        # envelope keeps the measurement for transport() to send.
        response.size()
        return response

    def _count_fault(self, service_name: str) -> None:
        svc = self._services.get(service_name)
        if svc is not None:
            svc.faults += 1

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<SoapServer {self.host.name!r} services={self.services()}>"
