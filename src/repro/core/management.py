"""The onServe management service ("Cyberaide service management").

The portal toolbar of §VI offers service management next to upload;
this SOAP service is that API surface: list the generated services,
inspect one, and undeploy one — so administration is possible from any
web-service client, not just the portal host.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, TYPE_CHECKING

from repro.core.context import RequestContext, span
from repro.errors import ServiceNotFound
from repro.ws.registryapi import OperationSpec, ParameterSpec, ServiceDescription

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.onserve import OnServe

__all__ = ["ManagementService"]


class ManagementService:
    """SOAP face of onServe administration."""

    SERVICE_NAME = "OnServeManagement"

    def __init__(self, onserve: "OnServe"):
        self.onserve = onserve

    def service_description(self) -> ServiceDescription:
        s = "xsd:string"
        return ServiceDescription(self.SERVICE_NAME, [
            OperationSpec("listServices", [], s),
            OperationSpec("describeService", [ParameterSpec("name", s)], s),
            OperationSpec("undeployService", [ParameterSpec("name", s)],
                          "xsd:boolean"),
            OperationSpec("listExecutables", [], s),
            OperationSpec("usageReport", [], s),
            OperationSpec("clientBundle", [ParameterSpec("name", s)],
                          "xsd:base64Binary"),
        ], documentation="Cyberaide onServe service management")

    def handler(self, operation: str, params: Dict[str, Any],
                ctx: Optional[RequestContext] = None) -> Any:
        if operation == "listServices":
            return "\n".join(
                f"{s.service_name}|{s.endpoint}|{s.executable_name}"
                f"|{self.onserve.invocation_count(s)}"
                for s in self.onserve.list_services())
        if operation == "describeService":
            return self._describe(params["name"])
        if operation == "undeployService":
            return self._undeploy(params["name"], ctx)
        if operation == "usageReport":
            rows = self.onserve.usage_report()
            return "\n".join(
                f"{r['service']}|{r['count']}|{r['ok']}"
                f"|{r['avg_total']:.1f}|{r['avg_overhead']:.1f}|{r['polls']}"
                for r in rows)
        if operation == "clientBundle":
            return self._client_bundle(params["name"])
        if operation == "listExecutables":
            rows = self.onserve.dbmanager.list_executables()
            return "\n".join(
                f"{r['name']}|{r['size']}|{r['compressed_size']}"
                f"|{r['stored_at']:.1f}"
                for r in rows)
        raise ServiceNotFound(
            f"management API has no operation {operation!r}")

    def _describe(self, name: str) -> str:
        service = self.onserve.get_service(name)
        # A fabric replica may know the service only as a store record
        # (generated elsewhere, not yet materialized here) — report the
        # fabric-wide count from the history table instead of local
        # reports then.
        runtime = self.onserve.runtimes.get(name)
        if runtime is not None:
            invocations = (f"{runtime.invocations} "
                           f"({runtime.invocations_ok} ok)")
        else:
            invocations = (f"{self.onserve.invocation_count(service)} "
                           f"(fabric-wide)")
        lines = [
            f"service      : {service.service_name}",
            f"executable   : {service.executable_name}",
            f"endpoint     : {service.endpoint}",
            f"wsdl         : {service.wsdl_location}",
            f"uddi key     : {service.uddi_service_key}",
            f"created at   : {service.created_at:.1f}",
            f"archive size : {service.archive_size} B",
            f"invocations  : {invocations}",
        ]
        return "\n".join(lines)

    def _undeploy(self, name: str,
                  ctx: Optional[RequestContext] = None) -> Generator:
        def op():
            with span(ctx, "management:undeploy", service=name):
                yield self.onserve.undeploy_service(name)
            return True
        return op()

    def _client_bundle(self, name: str) -> bytes:
        """A downloadable zip: generated stub source + the WSDL.

        The paper's §VIII.D.4 improvement: instead of every consumer
        running wsimport themselves, the appliance hands out the client
        files ready-made.
        """
        import io
        import zipfile

        from repro.ws.client import generate_stub_source

        self.onserve.get_service(name)  # raises ServiceNotFound
        wsdl = self.onserve.soap_server.wsdl(name)
        source = generate_stub_source(wsdl)
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as bundle:
            bundle.writestr(f"{name.lower()}_stub.py", source)
            bundle.writestr(f"{name}.wsdl", wsdl)
            bundle.writestr("README.txt",
                            f"Generated client for {name}.\n"
                            f"Instantiate {name}Stub with a repro WsClient.\n")
        return buf.getvalue()
