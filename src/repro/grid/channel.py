"""Authenticated control channels to a site's grid endpoints, pooled.

The faithful control path pays per operation: every GridFTP transfer and
every GRAM submit opens a fresh GSI handshake over the client's link —
the cost the goldens pin down.  A :class:`GsiChannel` is one
authenticated control channel between a client and one endpoint of a
site, its :class:`~repro.grid.gridftp.GridFtpServer` or its
:class:`~repro.grid.gram.GramGatekeeper`; :class:`GsiChannelPool` keeps
one per ``(endpoint, site, client, credential subject)``.  The rules
are the same for both endpoints:

* the first operation — and the first after an idle timeout, a failure
  or a credential change — pays the endpoint's handshake; every later
  one pays :attr:`GsiChannel.SESSION_OP_BYTES` of command traffic
  instead, on the same message as whatever the operation sends;
* establishment is single-flighted: concurrent first operations share
  one handshake;
* an idle channel closes lazily: staleness is checked at the next use,
  so an idle channel schedules *no* simulation events and a
  constructed-but-unused pool cannot perturb a run;
* any failed operation closes the channel(s) it ran on;
* presenting a *different* credential chain for the same key replaces
  the channel (the old one cannot speak for the new delegation).

Each operation has one body on its endpoint (``_put`` / ``_get`` /
``_third_party`` / ``_submit``) that takes the mode's control step: the
endpoint's own per-operation ``_handshake``, or a channel's
:meth:`GsiChannel._ensure_control`.  An endpoint offers ``PROTOCOL``
(the prefix of its channels' gauge and ``<protocol>.session_open``
event), ``control_bytes`` / ``handshakes`` / ``pooled_ops`` counters and
``_handshake(client, chain, carry)``.

A channel carries commands; it does not carry authorization.  The
gatekeeper's submit body runs ``acceptor.accept`` (gridmap, CRL,
expiry) on every submit, pooled or not: a subject revoked or a proxy
expired while its channel is open is refused on its next submit exactly
as on a fresh handshake.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Sequence, Tuple

from repro.core.context import RequestContext
from repro.errors import GridError, TransferError
from repro.hardware.host import Host
from repro.security.x509 import Certificate
from repro.simkernel.events import Event
from repro.telemetry.events import bus
from repro.telemetry.gauges import gauges

__all__ = ["GsiChannel", "GsiChannelPool"]


class GsiChannel:
    """One reusable, authenticated control channel to a site endpoint."""

    #: Command/reply bytes per pipelined operation on an open channel.
    SESSION_OP_BYTES = 256

    def __init__(self, server, client: Host, chain: Sequence[Certificate],
                 idle_timeout: float = 600.0):
        if idle_timeout <= 0:
            raise GridError("channel idle timeout must be positive")
        self.server = server
        self.sim = server.sim
        self.client = client
        self.chain = chain
        self.idle_timeout = idle_timeout
        #: Experiment counters: handshakes paid vs operations carried.
        self.handshakes = 0
        self.ops = 0
        self._open = False
        self._last_used = 0.0
        self._establishing: Optional[Event] = None
        self._bus = bus(self.sim)
        self._sessions_gauge = gauges(self.sim).gauge(
            f"{server.PROTOCOL}.{server.site.name}.sessions",
            unit="sessions")

    @property
    def open(self) -> bool:
        """True while the control channel is usable *right now* (lazy
        idle-close: an expired channel reads as closed)."""
        return (self._open
                and self.sim.now - self._last_used <= self.idle_timeout)

    def invalidate(self) -> None:
        """Drop the control channel (failure or credential change)."""
        if self._open:
            self._open = False
            self._sessions_gauge.adjust(-1)

    def _ensure_control(self, carry: int = 0) -> Generator[Event, None, None]:
        """The operation's first message: the endpoint's handshake if the
        channel must be opened, else the pipelined-op bytes — either way
        with the operation's own *carry* bytes on it."""
        server = self.server
        while True:
            if self.open:
                yield self.client.send(
                    server.host, self.SESSION_OP_BYTES + carry,
                    label=f"{server.PROTOCOL}-sess-op")
                server.control_bytes += self.SESSION_OP_BYTES
                server.pooled_ops += 1
                return
            if self._establishing is not None:
                # Another operation is mid-handshake: piggyback on it.
                yield self._establishing
                continue
            if self._open:
                # Stale (idle-expired) channel: close before reopening.
                self.invalidate()
            self._establishing = self.sim.event(
                f"{server.PROTOCOL}-sess-establish")
            try:
                yield from server._handshake(self.client, self.chain,
                                             carry=carry)
                self.handshakes += 1
                self._open = True
                self._last_used = self.sim.now
                self._sessions_gauge.adjust(+1)
                self._bus.emit(f"{server.PROTOCOL}.session_open",
                               layer="grid", site=server.site.name,
                               client=self.client.name)
            finally:
                pending, self._establishing = self._establishing, None
                pending.succeed()
            return

    def _pipelined(self, operation: Generator, *others: "GsiChannel"
                   ) -> Generator[Event, None, object]:
        """Run an endpoint operation on this channel (and *others*'):
        any failure or unwind closes them, success counts as one use of
        each."""
        try:
            result = yield from operation
        except BaseException:
            for channel in (self, *others):
                channel.invalidate()
            raise
        for channel in (self, *others):
            channel.ops += 1
            channel._last_used = self.sim.now
        return result

    # -- GridFTP operations ----------------------------------------------------

    def put(self, path: str, data: bytes, streams: int = 1,
            ctx: Optional[RequestContext] = None, offset: int = 0,
            total: Optional[int] = None,
            transfer: Optional[str] = None) -> Generator:
        """Pipelined upload (whole file or one range, as
        :meth:`GridFtpServer.put`) over this channel."""
        if streams < 1:
            raise TransferError("streams must be >= 1")
        streams = self.server.effective_streams(streams, len(data))
        return self._pipelined(
            self.server._put(self.client, self._ensure_control, path, data,
                             streams, ctx, (offset, total, transfer),
                             session=True))

    def get(self, path: str,
            ctx: Optional[RequestContext] = None) -> Generator:
        """Pipelined download over this channel."""
        return self._pipelined(
            self.server._get(self.client, self._ensure_control, path, ctx,
                             session=True))

    def third_party(self, src_path: str, dest: "GsiChannel",
                    dst_path: str,
                    ctx: Optional[RequestContext] = None) -> Generator:
        """Pipelined site-to-site copy from this channel's site to
        *dest*'s: one command on each open channel directs what the
        per-operation transfer pays two handshakes for."""
        def control() -> Generator[Event, None, None]:
            yield from self._ensure_control()
            yield from dest._ensure_control()

        return self._pipelined(
            self.server._third_party(control, src_path, dest.server,
                                     dst_path, ctx, session=True),
            dest)

    # -- GRAM operations -------------------------------------------------------

    def submit(self, rsl_text: str,
               ctx: Optional[RequestContext] = None) -> Generator:
        """Pipelined job submission over this (gatekeeper) channel: still
        one message, the request behind the pipelined-op bytes."""
        return self._pipelined(
            self.server._submit(self.client, self.chain,
                                self._ensure_control, rsl_text, ctx,
                                session=True))

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        state = "open" if self.open else "closed"
        return (f"<GsiChannel {self.server.PROTOCOL} {self.client.name}->"
                f"{self.server.site.name} {state} ops={self.ops}>")


class GsiChannelPool:
    """Channels keyed by ``(protocol, site, client, credential subject)``.

    Disabled (the default), every operation delegates straight to the
    endpoint's per-operation method — no channel objects are created, no
    state is kept, and the timeline is byte-identical to a build without
    this class.
    """

    def __init__(self, sim, enabled: bool = False,
                 idle_timeout: float = 600.0):
        self.sim = sim
        self.enabled = enabled
        self.idle_timeout = idle_timeout
        self._channels: Dict[Tuple[str, str, str, str], GsiChannel] = {}

    def channel(self, server, client: Host,
                chain: Sequence[Certificate]) -> GsiChannel:
        """The (created-on-first-use) channel for this endpoint pair."""
        key = (server.PROTOCOL, server.site.name, client.name,
               chain[0].subject)
        channel = self._channels.get(key)
        if channel is not None and channel.chain is not chain:
            # Fresh delegation (e.g. re-logon after expiry): the old
            # control channel dies with its credential.
            channel.invalidate()
            channel = None
        if channel is None:
            channel = GsiChannel(server, client, chain,
                                 idle_timeout=self.idle_timeout)
            self._channels[key] = channel
        return channel

    def put(self, server, client: Host, chain: Sequence[Certificate],
            path: str, data: bytes, streams: int = 1,
            ctx: Optional[RequestContext] = None, **where) -> Generator:
        """*where*: ``offset`` / ``total`` / ``transfer`` of a ranged PUT."""
        if not self.enabled:
            return server.put(client, chain, path, data, streams=streams,
                              ctx=ctx, **where)
        return self.channel(server, client, chain).put(
            path, data, streams=streams, ctx=ctx, **where)

    def get(self, server, client: Host, chain: Sequence[Certificate],
            path: str, ctx: Optional[RequestContext] = None) -> Generator:
        if not self.enabled:
            return server.get(client, chain, path, ctx=ctx)
        return self.channel(server, client, chain).get(path, ctx=ctx)

    def third_party(self, source, dest, client: Host,
                    chain: Sequence[Certificate], src_path: str,
                    dst_path: str,
                    ctx: Optional[RequestContext] = None) -> Generator:
        if not self.enabled:
            return source.third_party_transfer(client, chain, src_path,
                                               dest, dst_path, ctx=ctx)
        return self.channel(source, client, chain).third_party(
            src_path, self.channel(dest, client, chain), dst_path, ctx=ctx)

    def submit(self, gatekeeper, client: Host, chain: Sequence[Certificate],
               rsl_text: str,
               ctx: Optional[RequestContext] = None) -> Generator:
        if not self.enabled:
            return gatekeeper.submit(client, chain, rsl_text, ctx=ctx)
        return self.channel(gatekeeper, client, chain).submit(rsl_text,
                                                              ctx=ctx)

    @property
    def open_channels(self) -> int:
        return sum(1 for c in self._channels.values() if c.open)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        state = "on" if self.enabled else "off"
        return f"<GsiChannelPool {state} channels={len(self._channels)}>"
