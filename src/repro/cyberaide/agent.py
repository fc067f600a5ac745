"""The Cyberaide agent: grid functions exposed as web methods.

"To create and submit the job to the Grid, Cyberaide agent methods are
used.  The Cyberaide agent is a Web service and exposes its functions as
Web methods." (paper §VI).  The agent deploys into a
:class:`~repro.ws.server.SoapServer`; callers use a wsimport-generated
stub (see :func:`repro.ws.client.generate_stub`).

Faithful limitation: ``jobStatus`` raises unless
``AgentConfig.status_supported`` is set — the paper's workaround section
explains that status "can't be retrieved" through the agent, so clients
must "request the output tentatively" (``fetchOutput`` + ``outputReady``,
which checks for the stdout file on the grid instead of asking the LRM).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Generator, List, Optional

from repro.core.context import RequestContext, span
from repro.errors import AuthenticationFailed, CredentialExpired, GridError
from repro.faults.injector import get_injector
from repro.grid.channel import GsiChannelPool
from repro.grid.testbed import Testbed
from repro.hardware.host import Host
from repro.security.x509 import Certificate
from repro.simkernel.events import Event
from repro.telemetry.events import bus
from repro.ws.registryapi import OperationSpec, ParameterSpec, ServiceDescription

__all__ = ["AgentConfig", "CyberaideAgent", "AgentSession"]


class AgentConfig:
    """Behaviour switches of the agent."""

    # The three settings below are plain class attributes a test may
    # shadow on one instance.

    #: Lifetime of the proxy a MyProxy logon delegates to a session.
    default_proxy_lifetime = 12 * 3600.0
    #: CPU charged per agent call for session bookkeeping.
    session_cpu = 0.01
    #: A pooled control channel idle this long is closed.
    channel_idle_timeout = 600.0

    def __init__(self, status_supported: bool = False,
                 session_reuse: bool = False):
        #: The paper's workaround: False means jobStatus raises and
        #: clients must poll output tentatively.  True is the ablation.
        self.status_supported = status_supported
        #: Data-path plane: reuse one authenticated control channel
        #: per (site, endpoint, credential) — GridFTP and GRAM — instead
        #: of a GSI handshake per transfer and per submit.
        self.session_reuse = session_reuse


class AgentSession:
    """An authenticated session holding a delegated proxy chain."""

    __slots__ = ("session_id", "username", "chain", "expires_at")

    def __init__(self, session_id: str, username: str,
                 chain: List[Certificate], expires_at: float):
        self.session_id = session_id
        self.username = username
        self.chain = chain
        self.expires_at = expires_at


class CyberaideAgent:
    """Grid access functions, deployable as a SOAP service."""

    SERVICE_NAME = "CyberaideAgent"

    def __init__(self, host: Host, testbed: Testbed,
                 config: Optional[AgentConfig] = None):
        self.host = host
        self.sim = host.sim
        self.testbed = testbed
        self.config = config or AgentConfig()
        self._sessions: Dict[str, AgentSession] = {}
        self._counter = itertools.count(1)
        #: Experiment counters.
        self.uploads = 0
        #: Site-to-site copies directed (``replicateExecutable``).
        self.replications = 0
        self.submissions = 0
        self.output_polls = 0
        #: Control bytes spent on outputReady existence probes — the
        #: agent-side share of the poll overhead.
        self.probe_bytes = 0
        #: GridFTP and GRAM control channels, reused when session_reuse
        #: is on; disabled the pool is a pure pass-through to the per-op
        #: path.
        self._channels = GsiChannelPool(
            self.sim, enabled=self.config.session_reuse,
            idle_timeout=self.config.channel_idle_timeout)
        #: Observability plane: agent milestones become events.
        self._bus = bus(self.sim)

    # -- service wiring ------------------------------------------------------

    def service_description(self) -> ServiceDescription:
        s = "xsd:string"
        return ServiceDescription(self.SERVICE_NAME, [
            OperationSpec("authenticate",
                          [ParameterSpec("username", s),
                           ParameterSpec("passphrase", s)], s),
            OperationSpec("listSites", [], s),
            OperationSpec("uploadExecutable",
                          [ParameterSpec("session", s),
                           ParameterSpec("site", s),
                           ParameterSpec("path", s),
                           ParameterSpec("data", "xsd:base64Binary")],
                          "xsd:int"),
            OperationSpec("uploadRange",
                          [ParameterSpec("session", s),
                           ParameterSpec("site", s),
                           ParameterSpec("path", s),
                           ParameterSpec("data", "xsd:base64Binary"),
                           ParameterSpec("offset", "xsd:int"),
                           ParameterSpec("total", "xsd:int"),
                           ParameterSpec("transfer", s)], "xsd:int"),
            OperationSpec("replicateExecutable",
                          [ParameterSpec("session", s),
                           ParameterSpec("fromSite", s),
                           ParameterSpec("toSite", s),
                           ParameterSpec("path", s)], "xsd:int"),
            OperationSpec("submitJob",
                          [ParameterSpec("session", s),
                           ParameterSpec("site", s),
                           ParameterSpec("rsl", s)], s),
            OperationSpec("jobStatus",
                          [ParameterSpec("session", s),
                           ParameterSpec("site", s),
                           ParameterSpec("jobId", s)], s),
            OperationSpec("cancelJob",
                          [ParameterSpec("session", s),
                           ParameterSpec("site", s),
                           ParameterSpec("jobId", s)], "xsd:boolean"),
            OperationSpec("outputReady",
                          [ParameterSpec("session", s),
                           ParameterSpec("site", s),
                           ParameterSpec("path", s)], "xsd:boolean"),
            OperationSpec("fetchOutput",
                          [ParameterSpec("session", s),
                           ParameterSpec("site", s),
                           ParameterSpec("jobId", s)], "xsd:base64Binary"),
            OperationSpec("fetchFile",
                          [ParameterSpec("session", s),
                           ParameterSpec("site", s),
                           ParameterSpec("path", s)], "xsd:base64Binary"),
        ], documentation="Cyberaide agent: production-grid access functions")

    def handler(self, operation: str, params: Dict[str, Any],
                ctx: Optional[RequestContext] = None):
        """SOAP handler entry point (a generator per request).

        Context-aware: the container passes the caller's request
        context, which the agent threads into the grid protocols so a
        single trace covers SOAP dispatch, GridFTP and GRAM.
        """
        method = getattr(self, f"_op_{operation}", None)
        if method is None:  # unreachable via SOAP (specs gate operations)
            raise GridError(f"agent has no operation {operation!r}")
        return method(ctx=ctx, **params)

    # -- operations ---------------------------------------------------------------

    def _op_authenticate(self, username: str, passphrase: str,
                         ctx: Optional[RequestContext] = None
                         ) -> Generator[Event, None, str]:
        with span(ctx, "agent:authenticate", username=username):
            yield self.host.compute(self.config.session_cpu)
            key, proxy, ee = yield self.testbed.myproxy.logon(
                self.host, username, passphrase,
                lifetime=self.config.default_proxy_lifetime)
        session_id = f"sess-{next(self._counter):06d}"
        self._sessions[session_id] = AgentSession(
            session_id, username, [proxy, ee], proxy.not_after)
        self._bus.emit("agent.auth", layer="agent",
                       request_id=ctx.request_id if ctx else None,
                       username=username, session=session_id)
        return session_id

    def _op_listSites(self, ctx: Optional[RequestContext] = None
                      ) -> Generator[Event, None, str]:
        with span(ctx, "agent:listSites"):
            yield self.host.compute(self.config.session_cpu)
            sites = self.testbed.mds.query(min_free_cores=0)
        return ",".join(s.name for s in sites)

    def _op_uploadExecutable(self, session: str, site: str, path: str,
                             data: bytes,
                             ctx: Optional[RequestContext] = None,
                             **where) -> Generator[Event, None, int]:
        """Also ``uploadRange``: *where* is then the ``offset`` /
        ``total`` / ``transfer`` of GridFTP's partial-file PUT, and
        *data* one range of the file."""
        sess = self._session(session)
        ftp = self._ftp(site)
        n = yield from self._channels.put(ftp, self.host, sess.chain, path,
                                          data, ctx=ctx, **where)
        self.uploads += 1
        self._bus.emit("agent.upload", layer="agent",
                       request_id=ctx.request_id if ctx else None,
                       site=site, path=path, nbytes=n)
        return n

    _op_uploadRange = _op_uploadExecutable

    def _op_replicateExecutable(self, session: str, fromSite: str,
                                toSite: str, path: str,
                                ctx: Optional[RequestContext] = None
                                ) -> Generator[Event, None, int]:
        """Copy *path* from one site to the same path on another.

        GridFTP third-party mode: the agent only directs the transfer
        over two control channels (the pooled ones under
        ``session_reuse``); the bytes move head node to head node and
        never cross the appliance uplink.
        """
        sess = self._session(session)
        n = yield from self._channels.third_party(
            self._ftp(fromSite), self._ftp(toSite), self.host, sess.chain,
            path, path, ctx=ctx)
        self.replications += 1
        self._bus.emit("agent.replicate", layer="agent",
                       request_id=ctx.request_id if ctx else None,
                       src=fromSite, dest=toSite, path=path, nbytes=n)
        return n

    def _op_submitJob(self, session: str, site: str, rsl: str,
                      ctx: Optional[RequestContext] = None
                      ) -> Generator[Event, None, str]:
        sess = self._session(session)
        gram = self._gram(site)
        job_id = yield from self._channels.submit(gram, self.host, sess.chain,
                                                  rsl, ctx=ctx)
        self.submissions += 1
        self._bus.emit("agent.submit", layer="agent",
                       request_id=ctx.request_id if ctx else None,
                       site=site, job_id=job_id)
        return job_id

    def _op_jobStatus(self, session: str, site: str, jobId: str,
                      ctx: Optional[RequestContext] = None
                      ) -> Generator[Event, None, str]:
        self._session(session)
        if not self.config.status_supported:
            # The paper's workaround made concrete: this path is broken.
            raise GridError(
                "job status is not retrievable through the Cyberaide agent "
                "(known limitation); poll output tentatively instead")
        state = yield from self._gram(site).status(self.host, jobId, ctx=ctx)
        return state.value

    def _op_cancelJob(self, session: str, site: str, jobId: str,
                      ctx: Optional[RequestContext] = None
                      ) -> Generator[Event, None, bool]:
        self._session(session)
        return (yield from self._gram(site).cancel(self.host, jobId,
                                                   ctx=ctx))

    def _op_outputReady(self, session: str, site: str, path: str,
                        ctx: Optional[RequestContext] = None
                        ) -> Generator[Event, None, bool]:
        sess = self._session(session)
        gram = self._gram(site)
        # A control-channel existence probe on the grid filesystem — the
        # legitimate way around the missing status call.
        with span(ctx, "agent:outputReady", site=site):
            yield self.host.send(gram.host, 512, label="exists-probe")
            exists = self._ftp(site).exists(path)
            yield gram.host.send(self.host, 128, label="exists-answer")
        self.probe_bytes += 512 + 128
        return exists

    def _op_fetchOutput(self, session: str, site: str, jobId: str,
                        ctx: Optional[RequestContext] = None
                        ) -> Generator[Event, None, bytes]:
        self._session(session)
        data = yield from self._gram(site).fetch_output(self.host, jobId,
                                                        ctx=ctx)
        self.output_polls += 1
        self._bus.emit("agent.poll", layer="agent",
                       request_id=ctx.request_id if ctx else None,
                       site=site, job_id=jobId, nbytes=len(data))
        return data

    def _op_fetchFile(self, session: str, site: str, path: str,
                      ctx: Optional[RequestContext] = None
                      ) -> Generator[Event, None, bytes]:
        sess = self._session(session)
        return (yield from self._channels.get(self._ftp(site), self.host,
                                             sess.chain, path, ctx=ctx))

    # -- internals ---------------------------------------------------------------

    def _session(self, session_id: str) -> AgentSession:
        sess = self._sessions.get(session_id)
        if sess is None:
            raise AuthenticationFailed(f"no such agent session {session_id!r}")
        if self.sim.now > sess.expires_at:
            del self._sessions[session_id]
            raise AuthenticationFailed(
                f"agent session {session_id!r} expired (proxy lifetime)")
        injector = get_injector(self.sim)
        if (injector is not None
                and injector.fire("security.credential_expired")):
            # The delegated proxy is invalidated mid-session; the caller
            # must re-authenticate (fresh MyProxy logon) to recover.
            del self._sessions[session_id]
            raise CredentialExpired(
                f"agent session {session_id!r}: delegated proxy "
                f"invalidated mid-session")
        return sess

    def _gram(self, site: str):
        try:
            return self.testbed.gatekeepers[site]
        except KeyError:
            raise GridError(f"no gatekeeper for site {site!r}") from None

    def _ftp(self, site: str):
        try:
            return self.testbed.ftp_servers[site]
        except KeyError:
            raise GridError(f"no GridFTP server for site {site!r}") from None
