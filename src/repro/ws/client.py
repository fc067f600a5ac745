"""Web-service clients: dynamic calls and wsimport-style stubs.

:class:`WsClient` is the dynamic API: give it an endpoint and an
operation, and it hands back the call as a generator the calling
simulation process drives with ``yield from`` — the caller blocks on it,
like a stub call blocks a Java thread.  A caller that wants the call to
run beside its own work wraps it in ``sim.process(...)`` itself.

:func:`generate_stub` is the paper's ``wsimport`` equivalent: it parses a
WSDL document and *builds a Python class* whose methods mirror the
service's operations, including argument validation against the WSDL
types — so discovering a service in UDDI and calling it is exactly the
workflow of §VII.B.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, Generator, Optional, Type

from repro.core.context import RequestContext, span
from repro.hardware.host import Host
from repro.simkernel.events import Event
from repro.simkernel.process import Process
from repro.telemetry.events import bus
from repro.ws.pipeline import Invocation, cross
from repro.ws.registryapi import OperationSpec
from repro.ws.server import SoapFabric

__all__ = ["WsClient", "generate_stub"]


class WsClient:
    """A caller bound to a client host and an endpoint fabric."""

    def __init__(self, host: Host, fabric: SoapFabric, cache=None):
        self.host = host
        self.sim = host.sim
        self.fabric = fabric
        #: Optional :class:`~repro.ws.cache.ClientCache` memoising
        #: discovery / WSDL / stub work (None = the faithful hot path).
        self.cache = cache
        self._bus = bus(self.sim)

    def call(self, endpoint: str, operation: str,
             ctx: Optional[RequestContext] = None, **params: Any
             ) -> Generator[Event, None, Any]:
        """Invoke ``operation`` at *endpoint*: ``yield from`` the result.

        The endpoint resolves now; the crossing runs in the process that
        drives the generator, so an interrupt of that process unwinds
        the call (and the server half it carries) at its yield point.
        *ctx*, when given, rides along to the server: spans open on both
        sides of the wire and the deadline is enforced at each hop.  The
        crossing has no fault translation: faults raise in the caller.
        """
        server, service_name = self.fabric.resolve(endpoint)
        host = self.host
        return cross(self._bus, host.name,
                     Invocation(ctx, service_name, operation, params,
                                "client"),
                     lambda inv: server.transport(
                         host, inv.service_name, inv.operation, inv.params,
                         inv.ctx))

    def wsdl(self, endpoint: str, ctx: Optional[RequestContext] = None
             ) -> Generator[Event, None, bytes]:
        """Download a service's WSDL document: ``yield from`` the bytes.

        The document travels over the network like any other payload.
        """
        server, service_name = self.fabric.resolve(endpoint)
        document = server.wsdl(service_name)
        with span(ctx, f"client:wsdl.{service_name}"):
            # Small request; the document itself dominates.
            yield self.host.send(server.host, 256, label="wsdl-req")
            yield server.host.send(self.host, len(document),
                                   label="wsdl-doc")
        return document

    def fetch_wsdl(self, endpoint: str,
                   ctx: Optional[RequestContext] = None) -> Process:
        """:meth:`wsdl` as a simulation process, for a caller that waits
        on an event; the process-event's value is the WSDL bytes."""
        _server, service_name = self.fabric.resolve(endpoint)
        return self.sim.process(self.wsdl(endpoint, ctx),
                                name=f"fetch-wsdl:{service_name}")


@lru_cache(maxsize=256)
def generate_stub(wsdl_document: bytes) -> Type:
    """Build a client-stub class from a WSDL document (wsimport).

    The returned class is instantiated with a :class:`WsClient`; each
    WSDL operation becomes a method returning the call, which a
    simulation process drives (see :meth:`WsClient.call`)::

        ServiceStub = generate_stub(wsdl_bytes)
        stub = ServiceStub(ws_client)
        result = yield from stub.execute(param1="x")

    Arguments are validated against the WSDL parameter types *before*
    anything touches the network, mirroring the static typing wsimport
    gives Java clients.

    The class is a pure function of the document bytes and carries no
    client, endpoint-liveness or simulator state, so it is built once
    per distinct document for the whole process (a bounded memo keyed by
    the bytes themselves): changed bytes are a different key, hence a
    new class, and nothing ever needs invalidating.  Stub generation
    has no simulated cost in this model, so only host CPU is saved.
    """
    from repro.ws.wsdl import parse_wsdl

    description, endpoint = parse_wsdl(wsdl_document)

    def __init__(self, client: WsClient) -> None:  # noqa: N807
        self._client = client
        self._endpoint = endpoint
        self._description = description

    namespace: Dict[str, Any] = {
        "__init__": __init__,
        "__doc__": (f"wsimport stub for service {description.name!r} "
                    f"at {endpoint}"),
        "ENDPOINT": endpoint,
        "DESCRIPTION": description,
    }

    for op in description.operations:
        namespace[op.name] = _make_method(op)

    return type(f"{description.name}Stub", (), namespace)


def generate_stub_source(wsdl_document: bytes) -> str:
    """Emit *Python source code* for a client stub (wsimport-to-file).

    Where :func:`generate_stub` builds the class in memory, this renders
    it as a standalone ``.py`` module — the "provide the necessary files
    as a download" improvement the paper suggests (§VIII.D.4).  The
    generated module only needs :mod:`repro.ws.client` at run time.
    """
    from repro.ws.wsdl import parse_wsdl

    description, endpoint = parse_wsdl(wsdl_document)
    lines = [
        f'"""Client stub for {description.name!r} — generated by onServe.',
        "",
        f"Endpoint: {endpoint}",
        '"""',
        "",
        "",
        f"class {description.name}Stub:",
        f'    """Calls {description.name} through a repro WsClient.',
        "",
        "    Each method returns the call; a simulation process drives it",
        "    with ``yield from``.",
        '    """',
        "",
        f"    ENDPOINT = {endpoint!r}",
        "",
        "    def __init__(self, client):",
        "        self._client = client",
    ]
    for op in description.operations:
        params = "".join(f", {p.name}" for p in op.params)
        sig = ", ".join(f"{p.name}: {p.xsd_type}" for p in op.params)
        call_args = "".join(f", {p.name}={p.name}" for p in op.params)
        lines += [
            "",
            f"    def {op.name}(self{', *' + params if params else ''}"
            ", ctx=None):",
            f'        """Invoke {op.name}({sig}) -> {op.return_type}."""',
            f"        return self._client.call(self.ENDPOINT, "
            f"{op.name!r}{call_args}, ctx=ctx)",
        ]
    return "\n".join(lines) + "\n"


def _make_method(spec: OperationSpec):
    """A stub method for one operation (closure over its spec)."""

    def method(self, ctx: Any = None, **params: Any
               ) -> Generator[Event, None, Any]:
        spec.validate_arguments(params)
        return self._client.call(self._endpoint, spec.name, ctx=ctx, **params)

    method.__name__ = spec.name
    sig = ", ".join(f"{p.name}: {p.xsd_type}" for p in spec.params)
    method.__doc__ = f"Invoke {spec.name}({sig}) -> {spec.return_type}"
    return method
