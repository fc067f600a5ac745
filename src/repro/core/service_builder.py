"""The ant-build equivalent: executable -> deployable service archive.

The paper's build script "uses a Web service template file and modifies
its name and the initial value of an instance variable.  Then it modifies
the service description file and generates an aar-file that is finally
copied into the Web service framework's service directory" (§VI).

This builder does the same with real bytes: it instantiates the Java-ish
template source, generates the ``services.xml`` descriptor, zips both
into an ``.aar`` archive, charges the appliance CPU/disk for the build,
and deploys the result into the SOAP server.

An archive is a pure function of its record's name, description and
parameters: every entry carries one fixed timestamp, so a record builds
the same bytes on any replica at any time, and the bytes are zipped once
per process and reused.  Each build still charges its CPU and its disk
write of the archive's length.
"""

from __future__ import annotations

import functools
import io
import zipfile
from typing import Callable, Generator, Tuple

from repro.core.datastructures import ExecutableRecord, service_name_for
from repro.errors import ServiceBuildError
from repro.hardware.host import Host
from repro.simkernel.events import Event
from repro.simkernel.process import Process
from repro.ws.registryapi import OperationSpec, ParameterSpec, ServiceDescription
from repro.ws.server import SoapServer

__all__ = ["ServiceBuilder"]

#: The GridService "template-class" (paper §VI, "service" package) with
#: the two substitution points the ant build rewrites.
_TEMPLATE = """\
// Generated by the onServe service build — do not edit.
public class {service_name} extends GridServiceTemplate {{
    // "the initial value of an instance variable" the build script sets:
    private final String executableName = "{executable_name}";

    public String execute({java_params}) {{
        return runOnGrid(executableName, new String[] {{{java_args}}});
    }}
}}
"""

#: The modification time of every archive entry (the earliest a zip can
#: hold), so that an archive's bytes never depend on the wall clock.
_ENTRY_DATE_TIME = (1980, 1, 1, 0, 0, 0)


class ServiceBuilder:
    """Builds and deploys generated services on the appliance."""

    #: CPU seconds for template instantiation + javac-equivalent.
    BUILD_CPU = 0.25
    #: Additional CPU per declared parameter (codegen is per-signature).
    CPU_PER_PARAM = 0.02

    def __init__(self, host: Host, soap_server: SoapServer):
        self.host = host
        self.sim = host.sim
        self.soap_server = soap_server
        self.builds = 0

    def description_for(self, record: ExecutableRecord) -> ServiceDescription:
        """The service interface generated for *record*.

        ``execute`` takes the user-declared parameters and blocks until
        the grid job finishes (the paper's synchronous design);
        ``describe`` returns the stored description.  The asynchronous
        triple — ``submit`` / ``poll`` / ``result`` — is the natural
        extension for long jobs: submit returns a ticket immediately,
        and the client collects the output whenever it likes.
        """
        service_name = service_name_for(record.name)
        ticket = ParameterSpec("ticket", "xsd:string")
        return ServiceDescription(service_name, [
            OperationSpec("execute", record.params,
                          return_type="xsd:string"),
            OperationSpec("submit", record.params,
                          return_type="xsd:string"),
            OperationSpec("poll", [ticket], return_type="xsd:boolean"),
            OperationSpec("result", [ticket], return_type="xsd:string"),
            OperationSpec("describe", [], return_type="xsd:string"),
        ], documentation=record.description or
            f"Grid execution service for {record.name}")

    def build_archive(self, record: ExecutableRecord) -> bytes:
        """Produce the real ``.aar`` bytes for *record* (the same bytes
        for every record with its name, description and parameters)."""
        return _archive(record.name, record.description,
                        tuple((p.name, p.xsd_type) for p in record.params))

    def build_and_deploy(self, record: ExecutableRecord,
                         handler: Callable) -> Process:
        """Run the service build (a simulation process).

        The process-event's value is ``(endpoint, archive_bytes)``.
        """

        def op() -> Generator[Event, None, Tuple[str, bytes]]:
            description = self.description_for(record)
            if description.name in self.soap_server.services():
                raise ServiceBuildError(
                    f"service {description.name!r} already exists "
                    f"(re-upload replaces the executable, not the service)")
            yield self.host.compute(
                self.BUILD_CPU + self.CPU_PER_PARAM * len(record.params))
            archive = self.build_archive(record)
            # "copied into the Web service framework's service directory"
            yield self.host.disk_write(len(archive))
            endpoint = self.soap_server.deploy(description, handler)
            self.builds += 1
            return endpoint, archive

        return self.sim.process(op(), name=f"build:{record.name}")


@functools.lru_cache(maxsize=256)
def _archive(name: str, description: str,
             params: Tuple[Tuple[str, str], ...]) -> bytes:
    """The ``.aar`` of one (name, description, params) record."""
    service_name = service_name_for(name)
    java_params = ", ".join(f"String {p}" for p, _ in params)
    java_args = ", ".join(p for p, _ in params)
    source = _TEMPLATE.format(service_name=service_name,
                              executable_name=name,
                              java_params=java_params,
                              java_args=java_args)
    xml_params = "".join(
        f'    <parameter name="{p}" type="{xsd_type}"/>\n'
        for p, xsd_type in params)
    services_xml = (
        f'<serviceGroup>\n'
        f'  <service name="{service_name}">\n'
        f'    <description>{description}</description>\n'
        f'    <parameter name="executable">{name}</parameter>\n'
        f'{xml_params}'
        f'  </service>\n'
        f'</serviceGroup>\n'
    )
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as aar:
        for arcname, text in ((f"{service_name}.java", source),
                              ("META-INF/services.xml", services_xml)):
            entry = zipfile.ZipInfo(arcname, date_time=_ENTRY_DATE_TIME)
            entry.compress_type = zipfile.ZIP_DEFLATED
            entry.external_attr = 0o600 << 16  # what writestr(name) sets
            aar.writestr(entry, text)
    return buf.getvalue()
