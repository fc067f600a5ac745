"""Cyberaide Shell: a command-line front end over the agent.

"Several tools have been developed under the Cyberaide banner; well-known
examples are Cyberaide toolkit and Cyberaide Shell" (paper §III).  This
shell drives the agent's web methods from parsed command lines, which
gives examples and tests a user-shaped surface::

    auth ada s3cret
    sites
    run ncsa hello.exe alice 3
    output ncsa <job-id>

Every command executes as a simulation process and returns its printed
output as a string.
"""

from __future__ import annotations

import shlex
from collections import deque
from typing import Deque, Dict, Generator, List, Optional

from repro.core.context import RequestContext, span
from repro.cyberaide.jobspec import CyberaideJobSpec
from repro.errors import ReproError
from repro.simkernel.events import Event
from repro.simkernel.process import Process
from repro.ws.client import WsClient

__all__ = ["CyberaideShell"]


def _coerce(text: str, xsd_type: str):
    """Coerce a shell string to the WSDL-declared parameter type."""
    try:
        if xsd_type in ("xsd:int", "xsd:long"):
            return int(text)
        if xsd_type == "xsd:double":
            return float(text)
        if xsd_type == "xsd:boolean":
            if text.lower() in ("true", "1", "yes"):
                return True
            if text.lower() in ("false", "0", "no"):
                return False
            raise ValueError(text)
        if xsd_type == "xsd:base64Binary":
            return text.encode("utf-8")
        return text
    except ValueError:
        raise ReproError(
            f"cannot read {text!r} as {xsd_type}") from None


class CyberaideShell:
    """A stateful command interpreter bound to one agent endpoint."""

    def __init__(self, client: WsClient, agent_endpoint: str,
                 inquiry_endpoint: Optional[str] = None):
        self.client = client
        self.sim = client.sim
        self.agent_endpoint = agent_endpoint
        #: Optional UDDI inquiry endpoint enabling discover/invoke.
        self.inquiry_endpoint = inquiry_endpoint
        self.session: Optional[str] = None
        #: Virtual local files the user can upload/run.
        self.files: Dict[str, bytes] = {}
        self.history: List[str] = []
        #: Contexts of the newest commands, in order (trace inspection).
        #: Each holds its whole span tree and a reader wants the last
        #: few, so a long session keeps 64, not all of them.
        self.recent_requests: Deque[RequestContext] = deque(maxlen=64)

    def add_file(self, name: str, data: bytes) -> None:
        """Drop a file into the shell's virtual working directory."""
        self.files[name] = data

    def execute(self, line: str,
                ctx: Optional[RequestContext] = None) -> Process:
        """Run one command line; the process-event's value is its output.

        The shell is a request-fabric entry point: each command line
        gets its own :class:`RequestContext` unless the caller brings
        one, threaded through the agent calls the command makes.
        """
        self.history.append(line)
        if ctx is None:
            ctx = RequestContext.create(self.sim,
                                        principal=self.client.host.name)
        self.recent_requests.append(ctx)
        return self.sim.process(self._dispatch(line, ctx),
                                name=f"shell:{line[:30]}")

    # -- internals -----------------------------------------------------------

    def _agent(self, operation: str,
               ctx: Optional[RequestContext] = None, **params):
        return self.client.call(self.agent_endpoint, operation, ctx=ctx,
                                **params)

    def _dispatch(self, line: str,
                  ctx: Optional[RequestContext] = None
                  ) -> Generator[Event, None, str]:
        try:
            argv = shlex.split(line)
        except ValueError as exc:
            return f"error: {exc}"
        if not argv:
            return ""
        command, *args = argv
        handler = getattr(self, f"_cmd_{command}", None)
        if handler is None:
            return f"error: unknown command {command!r} (try 'help')"
        try:
            with span(ctx, f"shell:{command}"):
                result = yield from handler(args, ctx)
            return result
        except ReproError as exc:
            return f"error: {exc}"

    def _require_session(self) -> str:
        if self.session is None:
            raise ReproError("not authenticated (use: auth <user> <pass>)")
        return self.session

    # -- commands ----------------------------------------------------------------

    def _cmd_help(self, args, ctx=None) -> Generator[Event, None, str]:
        yield self.sim.timeout(0)
        return ("commands: help | auth <user> <pass> | sites | "
                "run <site> <file> [args...] | status <site> <job> | "
                "cancel <site> <job> | output <site> <job> | files | "
                "discover <pattern> | invoke <pattern> [name=value...]")

    def _cmd_files(self, args, ctx=None) -> Generator[Event, None, str]:
        yield self.sim.timeout(0)
        return "\n".join(f"{name} ({len(data)} bytes)"
                         for name, data in sorted(self.files.items())) or "(none)"

    def _cmd_auth(self, args, ctx=None) -> Generator[Event, None, str]:
        if len(args) != 2:
            raise ReproError("usage: auth <user> <passphrase>")
        self.session = yield self._agent("authenticate", ctx=ctx,
                                         username=args[0],
                                         passphrase=args[1])
        return f"authenticated: session {self.session}"

    def _cmd_sites(self, args, ctx=None) -> Generator[Event, None, str]:
        self._require_session()
        listing = yield self._agent("listSites", ctx=ctx)
        return listing.replace(",", "\n")

    def _cmd_run(self, args, ctx=None) -> Generator[Event, None, str]:
        if len(args) < 2:
            raise ReproError("usage: run <site> <file> [args...]")
        session = self._require_session()
        site, filename, *job_args = args
        if filename not in self.files:
            raise ReproError(f"no local file {filename!r} (see 'files')")
        spec = CyberaideJobSpec(filename, arguments=job_args)
        yield self._agent("uploadExecutable", ctx=ctx, session=session,
                          site=site, path=spec.staged_path(),
                          data=self.files[filename])
        job_id = yield self._agent("submitJob", ctx=ctx, session=session,
                                   site=site,
                                   rsl=spec.to_rsl(job_tag="shell"))
        return f"submitted: {job_id}"

    def _cmd_status(self, args, ctx=None) -> Generator[Event, None, str]:
        if len(args) != 2:
            raise ReproError("usage: status <site> <job-id>")
        session = self._require_session()
        state = yield self._agent("jobStatus", ctx=ctx, session=session,
                                  site=args[0], jobId=args[1])
        return f"{args[1]}: {state}"

    def _cmd_output(self, args, ctx=None) -> Generator[Event, None, str]:
        if len(args) != 2:
            raise ReproError("usage: output <site> <job-id>")
        session = self._require_session()
        data = yield self._agent("fetchOutput", ctx=ctx, session=session,
                                 site=args[0], jobId=args[1])
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError:
            return f"(binary output, {len(data)} bytes)"

    def _cmd_cancel(self, args, ctx=None) -> Generator[Event, None, str]:
        if len(args) != 2:
            raise ReproError("usage: cancel <site> <job-id>")
        session = self._require_session()
        ok = yield self._agent("cancelJob", ctx=ctx, session=session,
                               site=args[0], jobId=args[1])
        return f"{args[1]}: {'canceled' if ok else 'not canceled'}"

    # -- SaaS-side commands (need the UDDI inquiry endpoint) -----------------

    def _require_inquiry(self) -> str:
        if self.inquiry_endpoint is None:
            raise ReproError("no UDDI inquiry endpoint configured")
        return self.inquiry_endpoint

    def _cmd_discover(self, args, ctx=None) -> Generator[Event, None, str]:
        if len(args) != 1:
            raise ReproError("usage: discover <name-pattern>")
        inquiry = self._require_inquiry()
        raw = yield self.client.call(inquiry, "findService", ctx=ctx,
                                     pattern=args[0])
        from repro.ws.uddi_service import parse_service_lines
        hits = parse_service_lines(raw)
        if not hits:
            return "(no services match)"
        return "\n".join(f"{h['name']}  —  {h['description'] or '(no description)'}"
                         for h in hits)

    def _cmd_invoke(self, args, ctx=None) -> Generator[Event, None, str]:
        if not args:
            raise ReproError("usage: invoke <name-pattern> [name=value...]")
        inquiry = self._require_inquiry()
        pattern, *pairs = args
        raw_params: Dict[str, str] = {}
        for pair in pairs:
            if "=" not in pair:
                raise ReproError(f"bad parameter {pair!r} (want name=value)")
            key, _, value = pair.partition("=")
            raw_params[key] = value

        from repro.ws.client import generate_stub
        from repro.ws.uddi_service import parse_binding_lines, parse_service_lines

        hits = parse_service_lines(
            (yield self.client.call(inquiry, "findService", ctx=ctx,
                                    pattern=pattern)))
        if not hits:
            raise ReproError(f"no service matches {pattern!r}")
        bindings = parse_binding_lines(
            (yield self.client.call(inquiry, "getBindings", ctx=ctx,
                                    serviceKey=hits[0]["key"])))
        if not bindings:
            raise ReproError(f"service {hits[0]['name']!r} has no binding")
        endpoint = bindings[0]["access_point"]
        document = yield self.client.fetch_wsdl(endpoint, ctx=ctx)
        stub = generate_stub(document)(self.client)
        execute = stub.DESCRIPTION.operation("execute")
        # Coerce the string parameters to the WSDL-declared types.
        typed: Dict[str, object] = {}
        for p in execute.params:
            if p.name not in raw_params:
                raise ReproError(f"missing parameter {p.name!r} "
                                 f"(service expects "
                                 f"{[q.name for q in execute.params]})")
            typed[p.name] = _coerce(raw_params[p.name], p.xsd_type)
        extra = set(raw_params) - {p.name for p in execute.params}
        if extra:
            raise ReproError(f"unknown parameters {sorted(extra)}")
        result = yield stub.execute(ctx=ctx, **typed)
        return str(result)
