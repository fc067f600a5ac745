"""The SOAP server: service deployment and request dispatch.

A :class:`SoapServer` lives on a simulated host (the appliance's Tomcat
stand-in).  Services are deployed with a
:class:`~repro.ws.registryapi.ServiceDescription` plus a *handler*
callable; an invocation runs inside the simulation process that carried
the request (the caller's own, or the router's proxy), which

1. moves the request envelope's encoded size over the network (the size
   is computed, the envelope never rendered — ``SoapEnvelope.size``;
   a loopback request from the server's own host moves nothing),
2. charges the server CPU for parsing/dispatch (scaled by message size),
3. runs the handler dispatch as one :func:`~repro.ws.pipeline.cross`
   (span, deadline, one ``ws.request`` event), any exception becoming
   a fault envelope — except an :class:`~repro.simkernel.process.Interrupt`,
   which unwinds the carrying process (a replica crash),
4. runs the handler (a generator handler is delegated to — the
   generated GridService handler submits grid jobs and takes minutes),
5. moves the response (or fault) envelope's size back to the client.

:class:`SoapFabric` is the name service mapping ``soap://host/Service``
endpoints to server objects, standing in for DNS+TCP connection setup.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.core.context import RequestContext
from repro.errors import ServiceNotFound, WsError
from repro.hardware.host import Host
from repro.simkernel.events import Event
from repro.simkernel.process import Interrupt
from repro.telemetry.events import bus
from repro.units import KB
from repro.ws.pipeline import Invocation, cross, soap_fault
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
        self._bus = bus(self.sim)

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

    def transport(self, client: Host, service_name: str, operation: str,
                  params: Dict[str, Any],
                  ctx: Optional[RequestContext] = None,
                  ) -> Generator[Event, None, Any]:
        """The wire round-trip, as a generator for embedding in a process:

        size + send the request envelope, serve it on this host, send
        the response back, unwrap it (raising the fault, if any).  A
        loopback crossing (*client* is this host) sends nothing: it
        still pays the parse and dispatch CPU, but a transfer from a
        host to itself takes no time and touches no link.
        """
        request = SoapEnvelope.request(operation, params,
                                       namespace=f"urn:repro:{service_name}")
        request_bytes = request.size()
        host = self.host
        wire = client is not host
        if wire:
            yield client.send(host, request_bytes,
                              label=f"soap-req:{service_name}.{operation}")
        response = yield from self._serve(request_bytes, service_name,
                                          operation, params, ctx)
        if wire:
            yield host.send(client, response.size(),
                            label=f"soap-rsp:{service_name}.{operation}")
        return response.result()  # raises the fault, if any

    def _serve(self, request_bytes: int, service_name: str, operation: str,
               params: Dict[str, Any],
               ctx: Optional[RequestContext] = None,
               ) -> Generator[Event, None, SoapEnvelope]:
        """Server-side half: parse, then one crossing around the dispatch.

        Returns an envelope — any exception, deadline expiry included,
        becomes a counted fault envelope, which travels back over the
        network like a regular response.  An :class:`Interrupt` is no
        exception of the service: it propagates, so a crash reaches
        whoever interrupted the carrying process untranslated.
        """
        yield self.host.compute(
            self.DISPATCH_CPU + self.PARSE_CPU_PER_KB * request_bytes / KB(1),
            tag="soap")
        self.requests_served += 1
        inv = Invocation(ctx, service_name, operation, params, "server")
        try:
            return (yield from cross(self._bus, self.host.name, inv,
                                     self._dispatch))
        except Interrupt:
            raise  # a crash unwinds the carrying process, it is no fault
        except Exception as exc:
            svc = self._services.get(service_name)
            if svc is not None:
                svc.faults += 1
            return SoapEnvelope.fault_response(soap_fault(exc))

    def _dispatch(self, inv: Invocation) -> Generator[Event, None, SoapEnvelope]:
        """Crossing terminal: validate, run the handler, build the response."""
        svc = self.service(inv.service_name)
        spec = svc.description.operation(inv.operation)
        spec.validate_arguments(inv.params)
        svc.invocations += 1
        if svc.wants_context:
            result = svc.handler(inv.operation, dict(inv.params), inv.ctx)
        else:
            result = svc.handler(inv.operation, dict(inv.params))
        if inspect.isgenerator(result):
            result = yield from result
        response = SoapEnvelope.response(inv.operation, result)
        # A result the codec cannot carry must fail here, inside the
        # crossing, so it travels back as a counted fault envelope.  The
        # envelope keeps the measurement for transport() to send.
        response.size()
        return response

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<SoapServer {self.host.name!r} services={self.services()}>"
