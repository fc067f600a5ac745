"""The extended Cyberaide portal: the upload + generate flow (§VII.A).

The portal is the JSP front end behind Figure 3's "Upload file and
generate Web Service" dialog.  :meth:`CyberaidePortal.upload_and_generate`
models one form submission end to end:

1. the file travels over the user's (fast LAN) link to the portal host —
   Figure 8's network-input peak,
2. Tomcat/JSP handling burns CPU ("because of tomcat handling the
   request and loading the java-classes"),
3. the file is written to a *temporary location* (first disk-write
   peak), and then
4. handed to onServe, whose database store writes it *again* (second
   disk-write peak) — the double-write flaw §VIII.D.3 calls "not optimal
   and may be improved".  ``OnServeConfig.double_write=False`` is the
   improved variant.
"""

from __future__ import annotations

from typing import Generator, Optional, TYPE_CHECKING

from repro.core.context import RequestContext, span
from repro.core.datastructures import GeneratedService
from repro.errors import UploadError
from repro.hardware.host import Host
from repro.simkernel.events import Event
from repro.simkernel.process import Process
from repro.units import MB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.onserve import OnServe

__all__ = ["CyberaidePortal"]


class CyberaidePortal:
    """The web portal component on the appliance host."""

    #: Tomcat + JSP handling: fixed CPU seconds per form submission
    #: plus a per-megabyte share for parsing the multipart body.
    CPU_FIXED = 0.15
    CPU_PER_MB = 0.01
    #: Multipart form fields and headers around the file itself.
    FORM_OVERHEAD_BYTES = 2048

    def __init__(self, onserve: "OnServe"):
        self.onserve = onserve
        self.host = onserve.host
        self.sim = onserve.sim
        self.uploads_handled = 0
        #: Contexts of handled uploads, newest last (trace inspection).
        self.recent_requests: list = []

    def upload_and_generate(self, user_host: Host, filename: str,
                            data: bytes, description: str = "",
                            params_spec: str = "",
                            ctx: Optional[RequestContext] = None) -> Process:
        """One "Upload file and generate WebService" form submission.

        The process-event's value is the :class:`GeneratedService`.
        The portal is a request-fabric entry point: it mints a
        :class:`RequestContext` (unless the caller brought one) and
        threads it through the onServe layers below.
        """
        config = self.onserve.config
        if ctx is None:
            ctx = RequestContext.create(self.sim, principal=user_host.name)
        self.recent_requests.append(ctx)

        def op() -> Generator[Event, None, GeneratedService]:
            if not filename:
                raise UploadError("the form requires a file name")
            with span(ctx, "portal:upload", file=filename):
                # 1. Reception: multipart form over the LAN, buffered
                #    in RAM.
                with span(ctx, "portal:receive"):
                    yield user_host.send(
                        self.host, len(data) + self.FORM_OVERHEAD_BYTES,
                        label=f"portal-upload:{filename}")
                self.host.allocate_memory(len(data))
                try:
                    # 2. Tomcat + JSP handling.
                    with span(ctx, "portal:handle"):
                        yield self.host.compute(
                            self.CPU_FIXED
                            + self.CPU_PER_MB * len(data) / MB(1),
                            tag="portal")
                        # 3. Temporary storage (first of the two writes).
                        if config.double_write:
                            yield self.host.disk_write(len(data))
                    # 4. "a parameter string is used to call the
                    #    Cyberaide onServe function" — storage, build,
                    #    publish.
                    service = yield self.onserve.generate_service(
                        filename, data, description=description,
                        params_spec=params_spec, uploaded_by=user_host.name,
                        ctx=ctx)
                finally:
                    self.host.release_memory(len(data))
            self.uploads_handled += 1
            return service

        return self.sim.process(op(), name=f"portal:{filename}")
