"""GridFTP: authenticated, bandwidth-limited file transfer to a site.

Every operation is a simulation process: the GSI handshake bytes and the
file bytes travel over the (typically slow WAN) path to the site's head
node, then land on its disk.  The ~60-second, 80-90 KB/s upload plateau
in Figure 7 is exactly a ``put`` through a thin uplink.

Two control-path modes exist:

* **Per-operation** (:meth:`GridFtpServer.put` / :meth:`~GridFtpServer.get`
  / :meth:`~GridFtpServer.third_party_transfer`) — every transfer pays a
  fresh GSI handshake plus control bytes, the faithful pay-per-operation
  cost the goldens pin down.
* **Session-oriented** (:class:`GridFtpSession`, pooled by
  :class:`GridFtpSessionPool`) — one handshake + control channel per
  ``(client, site, credential)``, reused across pipelined operations;
  later operations pay only :attr:`GridFtpSession.SESSION_OP_BYTES` of
  control traffic.  Sessions close lazily on idle timeout (checked at
  the next use — an idle session schedules *no* simulation events, so a
  constructed-but-unused pool cannot perturb a run).
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Sequence, Tuple

from repro.core.context import RequestContext, span
from repro.errors import TransferError
from repro.faults.injector import get_injector
from repro.grid.site import GridSite
from repro.hardware.host import Host
from repro.security.gsi import GsiAcceptor
from repro.security.x509 import Certificate
from repro.simkernel.events import Event
from repro.simkernel.process import Process
from repro.telemetry.events import bus
from repro.telemetry.gauges import gauges

__all__ = ["GridFtpServer", "GridFtpSession", "GridFtpSessionPool"]


class GridFtpServer:
    """The file-transfer endpoint of one grid site."""

    #: Control-channel bytes per operation (commands + replies).
    CONTROL_BYTES = 2048
    #: CPU seconds per MB for checksumming/marshalling on the head node.
    CPU_PER_MB = 0.02

    def __init__(self, site: GridSite):
        self.site = site
        self.sim = site.sim
        self.host = site.head
        self.transfers_in = 0
        self.transfers_out = 0
        #: Control-channel bytes this endpoint has exchanged (handshakes
        #: + command traffic; data payloads excluded).  Pure bookkeeping
        #: — the data-path ablation reads it, the timeline never does.
        self.control_bytes = 0
        #: Observability plane: concurrent data connections become a
        #: gauge, completed transfers become events.
        self._bus = bus(self.sim)
        self._streams = gauges(self.sim).gauge(
            f"gridftp.{site.name}.streams", unit="conns")

    def _authenticate(self, chain: Sequence[Certificate]) -> None:
        # GSI mutual auth against the site's acceptor; raises on failure.
        self.site.acceptor.accept(chain, self.sim.now)

    @staticmethod
    def effective_streams(streams: int, nbytes: int) -> int:
        """Clamp *streams* to the payload: a stream that would carry
        zero bytes is never opened (tiny files on many streams used to
        schedule empty parallel sends)."""
        return max(1, min(streams, nbytes))

    def _refuse_if_down(self, injector) -> None:
        if injector is not None and injector.down(self.site.name):
            raise TransferError(
                f"{self.site.name}: GridFTP unreachable (site outage)")

    def _data_faults(self, injector, sender: Host, receiver: Host,
                     nbytes: int, kind: str, path: str
                     ) -> Generator[Event, None, None]:
        """A degraded link stalls the data channel before any byte
        moves; an abort dies mid-transfer, after half the payload
        already crossed the wire."""
        if injector is None:
            return
        stall = injector.fire("gridftp.degrade", self.site.name)
        if stall is not None and stall.duration > 0:
            yield self.sim.timeout(stall.duration,
                                   name="fault:gridftp-degrade")
        if injector.fire("gridftp.abort", self.site.name):
            yield sender.send(receiver, nbytes // 2,
                              label=f"gridftp-{kind}:{path}#aborted")
            raise TransferError(f"{self.site.name}: data channel aborted "
                                f"mid-transfer ({path!r})")

    def _handshake(self, client: Host, chain: Sequence[Certificate],
                   streams: int = 1, label: str = "gridftp-ctl"
                   ) -> Generator[Event, None, None]:
        """Per-operation control: a fresh GSI handshake + command bytes."""
        nbytes = (GsiAcceptor.handshake_bytes(chain)
                  + streams * self.CONTROL_BYTES)
        yield client.send(self.host, nbytes, label=label)
        self._authenticate(chain)
        self.control_bytes += nbytes

    # -- the operations; *control* is the mode's control-channel step --------

    def _put(self, client: Host, control, path: str, data: bytes,
             streams: int, ctx: Optional[RequestContext], where,
             **mode) -> Generator[Event, None, int]:
        """Upload: faults, parallel sends, head-node checksumming, disk,
        storage-area bookkeeping.  *where* is ``put``'s ``(offset,
        total, transfer)`` (:meth:`GridSite.store_file`)."""
        started = self.sim.now
        injector = get_injector(self.sim)
        with span(ctx, "gridftp:put", site=self.site.name, bytes=len(data),
                  **mode):
            self._refuse_if_down(injector)
            yield from control()
            yield from self._data_faults(injector, client, self.host,
                                         len(data), "put", path)
            self._streams.adjust(+streams)
            try:
                if streams == 1:
                    yield client.send(self.host, len(data),
                                      label=f"gridftp-put:{path}")
                else:
                    chunk = len(data) // streams
                    sizes = [chunk] * (streams - 1)
                    sizes.append(len(data) - chunk * (streams - 1))
                    yield self.sim.all_of([
                        client.send(self.host, size,
                                    label=f"gridftp-put:{path}#{i}")
                        for i, size in enumerate(sizes)])
            finally:
                self._streams.adjust(-streams)
            yield self.host.compute(
                self.CPU_PER_MB * len(data) / (1024 * 1024),
                tag="gridftp")
            yield self.host.disk_write(len(data))
            self.site.store_file(path, data, *where)
            self.transfers_in += 1
        self._bus.emit("gridftp.put", layer="grid",
                       request_id=ctx.request_id if ctx else None,
                       site=self.site.name, path=path, nbytes=len(data),
                       streams=streams, seconds=self.sim.now - started,
                       **mode)
        return len(data)

    def _get(self, client: Host, control, path: str,
             ctx: Optional[RequestContext], **mode
             ) -> Generator[Event, None, bytes]:
        """Download: disk read + send back."""
        started = self.sim.now
        injector = get_injector(self.sim)
        with span(ctx, "gridftp:get", site=self.site.name, **mode):
            self._refuse_if_down(injector)
            yield from control()
            if not self.site.has_file(path):
                raise TransferError(
                    f"{self.site.name}: no such file {path!r}")
            data = self.site.read_file(path)
            yield self.host.disk_read(len(data))
            self._streams.adjust(+1)
            try:
                yield self.host.send(client, len(data),
                                     label=f"gridftp-get:{path}")
            finally:
                self._streams.adjust(-1)
            self.transfers_out += 1
        self._bus.emit("gridftp.get", layer="grid",
                       request_id=ctx.request_id if ctx else None,
                       site=self.site.name, path=path, nbytes=len(data),
                       streams=1, seconds=self.sim.now - started, **mode)
        return data

    def _third_party(self, control, src_path: str, dest: "GridFtpServer",
                     dst_path: str, ctx: Optional[RequestContext], **mode
                     ) -> Generator[Event, None, int]:
        """Site-to-site copy: read here, move head node to head node,
        land at *dest*.  Fault plane and telemetry parity with put/get:
        an outage at either end refuses the transfer, degrade/abort
        faults hit the head-to-head data channel, both ends' stream
        gauges track the connection, and a ``gridftp.third_party`` event
        records the move."""
        started = self.sim.now
        injector = get_injector(self.sim)
        with span(ctx, "gridftp:3pt", src=self.site.name,
                  dest=dest.site.name, **mode):
            for end in (self, dest):
                end._refuse_if_down(injector)
            yield from control()
            if not self.site.has_file(src_path):
                raise TransferError(
                    f"{self.site.name}: no such file {src_path!r}")
            data = self.site.read_file(src_path)
            yield self.host.disk_read(len(data))
            yield from self._data_faults(injector, self.host, dest.host,
                                         len(data), "3pt", src_path)
            # Data channel: head node to head node.
            self._streams.adjust(+1)
            dest._streams.adjust(+1)
            try:
                yield self.host.send(dest.host, len(data),
                                     label=f"gridftp-3pt:{src_path}")
            finally:
                self._streams.adjust(-1)
                dest._streams.adjust(-1)
            yield dest.host.disk_write(len(data))
            dest.site.store_file(dst_path, data)
            self.transfers_out += 1
            dest.transfers_in += 1
        self._bus.emit("gridftp.third_party", layer="grid",
                       request_id=ctx.request_id if ctx else None,
                       src=self.site.name, dest=dest.site.name,
                       path=dst_path, nbytes=len(data),
                       seconds=self.sim.now - started, **mode)
        return len(data)

    # -- per-operation mode (fresh handshake every time) ---------------------

    def put(self, client: Host, chain: Sequence[Certificate],
            path: str, data: bytes, streams: int = 1,
            ctx: Optional[RequestContext] = None, offset: int = 0,
            total: Optional[int] = None,
            transfer: Optional[str] = None) -> Process:
        """Upload *data* to *path* in the site storage area.

        *streams* opens that many parallel data connections (GridFTP's
        ``-p``).  Alone on a link it changes nothing; under contention
        each stream claims its own fair share, so a multi-stream
        transfer outruns single-stream competitors — exactly why the
        option exists.  Streams are clamped to the payload size: a
        3-byte file on 8 streams opens 3 connections, not 8.

        With a *transfer* id this is GridFTP's partial-file PUT: *data*
        is the range at *offset* of a *total*-byte file, which the site
        makes visible once the ranges of that id cover it — so several
        clients can each carry a range over their own link.  The whole
        file is the same transfer with one range and no id.
        """
        if streams < 1:
            raise TransferError("streams must be >= 1")
        streams = self.effective_streams(streams, len(data))
        return self.sim.process(
            self._put(client, lambda: self._handshake(client, chain, streams),
                      path, data, streams, ctx, (offset, total, transfer)),
            name=f"gridftp-put:{path}")

    def get(self, client: Host, chain: Sequence[Certificate],
            path: str, ctx: Optional[RequestContext] = None) -> Process:
        """Download *path* from the site storage area."""
        return self.sim.process(
            self._get(client, lambda: self._handshake(client, chain),
                      path, ctx),
            name=f"gridftp-get:{path}")

    def third_party_transfer(self, client: Host,
                             chain: Sequence[Certificate],
                             src_path: str, dest: "GridFtpServer",
                             dst_path: str,
                             ctx: Optional[RequestContext] = None) -> Process:
        """Site-to-site transfer directed by a third party.

        The client authenticates to both ends over control channels; the
        data moves directly between the site head nodes (never through
        the client) — the classic GridFTP third-party mode that makes
        staging between centres practical over thin client links.
        """
        def control() -> Generator[Event, None, None]:
            yield from self._handshake(client, chain,
                                       label="gridftp-3pt-src")
            yield from dest._handshake(client, chain,
                                       label="gridftp-3pt-dst")

        return self.sim.process(
            self._third_party(control, src_path, dest, dst_path, ctx),
            name=f"gridftp-3pt:{src_path}")

    def exists(self, path: str) -> bool:
        """Control-channel existence check (no data transfer modelled)."""
        return self.site.has_file(path)


class GridFtpSession:
    """One reusable control channel between a client and a site.

    The first operation (and the first after an idle timeout, a fault,
    or a credential change) pays the full GSI handshake; every pipelined
    operation after that pays only :attr:`SESSION_OP_BYTES` of command
    traffic.  Establishment is single-flighted: concurrent first
    operations share one handshake instead of racing several.
    """

    #: Command/reply bytes per pipelined operation on an open channel.
    SESSION_OP_BYTES = 256

    def __init__(self, server: GridFtpServer, client: Host,
                 chain: Sequence[Certificate], idle_timeout: float = 600.0):
        if idle_timeout <= 0:
            raise TransferError("session idle timeout must be positive")
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
            f"gridftp.{server.site.name}.sessions", unit="sessions")

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

    def _ensure_control(self) -> Generator[Event, None, None]:
        """Handshake if needed, else pay the pipelined-op bytes."""
        server = self.server
        while True:
            if self.open:
                yield self.client.send(server.host, self.SESSION_OP_BYTES,
                                       label="gridftp-sess-op")
                server.control_bytes += self.SESSION_OP_BYTES
                return
            if self._establishing is not None:
                # Another operation is mid-handshake: piggyback on it.
                yield self._establishing
                continue
            if self._open:
                # Stale (idle-expired) channel: close before reopening.
                self.invalidate()
            self._establishing = self.sim.event("gridftp-sess-establish")
            try:
                yield from server._handshake(self.client, self.chain)
                self.handshakes += 1
                self._open = True
                self._last_used = self.sim.now
                self._sessions_gauge.adjust(+1)
                self._bus.emit("gridftp.session_open", layer="grid",
                               site=server.site.name,
                               client=self.client.name)
            finally:
                pending, self._establishing = self._establishing, None
                pending.succeed()
            return

    def _pipelined(self, operation: Generator, name: str,
                   *others: "GridFtpSession") -> Process:
        """Run a server operation on this channel (and *others*'): any
        failure closes them, success counts as one use of each."""
        def op() -> Generator[Event, None, object]:
            try:
                result = yield from operation
            except BaseException:
                for session in (self, *others):
                    session.invalidate()
                raise
            for session in (self, *others):
                session.ops += 1
                session._last_used = self.sim.now
            return result

        return self.sim.process(op(), name=name)

    def put(self, path: str, data: bytes, streams: int = 1,
            ctx: Optional[RequestContext] = None, offset: int = 0,
            total: Optional[int] = None,
            transfer: Optional[str] = None) -> Process:
        """Pipelined upload (whole file or one range, as
        :meth:`GridFtpServer.put`) over the session's control channel."""
        if streams < 1:
            raise TransferError("streams must be >= 1")
        streams = GridFtpServer.effective_streams(streams, len(data))
        return self._pipelined(
            self.server._put(self.client, self._ensure_control, path, data,
                             streams, ctx, (offset, total, transfer),
                             session=True),
            f"gridftp-put:{path}")

    def get(self, path: str,
            ctx: Optional[RequestContext] = None) -> Process:
        """Pipelined download over the session's control channel."""
        return self._pipelined(
            self.server._get(self.client, self._ensure_control, path, ctx,
                             session=True),
            f"gridftp-get:{path}")

    def third_party(self, src_path: str, dest: "GridFtpSession",
                    dst_path: str,
                    ctx: Optional[RequestContext] = None) -> Process:
        """Pipelined site-to-site copy from this session's site to
        *dest*'s: one command on each open channel directs what the
        per-operation transfer pays two handshakes for."""
        def control() -> Generator[Event, None, None]:
            yield from self._ensure_control()
            yield from dest._ensure_control()

        return self._pipelined(
            self.server._third_party(control, src_path, dest.server,
                                     dst_path, ctx, session=True),
            f"gridftp-3pt:{src_path}", dest)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        state = "open" if self.open else "closed"
        return (f"<GridFtpSession {self.client.name}->"
                f"{self.server.site.name} {state} ops={self.ops}>")


class GridFtpSessionPool:
    """Sessions keyed by ``(site, client, credential subject)``.

    Disabled (the default), :meth:`put`/:meth:`get`/:meth:`third_party`
    delegate straight to the per-operation server methods — no session
    objects are created, no state is kept, and the timeline is
    byte-identical to a build without this class.  Enabled, each distinct endpoint/credential pair
    gets one reusable :class:`GridFtpSession`; presenting a *different*
    credential chain for the same endpoint replaces the session (the old
    control channel cannot authenticate the new delegation).
    """

    def __init__(self, sim, enabled: bool = False,
                 idle_timeout: float = 600.0):
        self.sim = sim
        self.enabled = enabled
        self.idle_timeout = idle_timeout
        self._sessions: Dict[Tuple[str, str, str], GridFtpSession] = {}

    def session(self, server: GridFtpServer, client: Host,
                chain: Sequence[Certificate]) -> GridFtpSession:
        """The (created-on-first-use) session for this endpoint pair."""
        key = (server.site.name, client.name, chain[0].subject)
        session = self._sessions.get(key)
        if session is not None and session.chain is not chain:
            # Fresh delegation (e.g. re-logon after expiry): the old
            # control channel dies with its credential.
            session.invalidate()
            session = None
        if session is None:
            session = GridFtpSession(server, client, chain,
                                     idle_timeout=self.idle_timeout)
            self._sessions[key] = session
        return session

    def put(self, server: GridFtpServer, client: Host,
            chain: Sequence[Certificate], path: str, data: bytes,
            streams: int = 1, ctx: Optional[RequestContext] = None,
            **where) -> Process:
        """*where*: ``offset`` / ``total`` / ``transfer`` of a ranged PUT."""
        if not self.enabled:
            return server.put(client, chain, path, data, streams=streams,
                              ctx=ctx, **where)
        return self.session(server, client, chain).put(
            path, data, streams=streams, ctx=ctx, **where)

    def get(self, server: GridFtpServer, client: Host,
            chain: Sequence[Certificate], path: str,
            ctx: Optional[RequestContext] = None) -> Process:
        if not self.enabled:
            return server.get(client, chain, path, ctx=ctx)
        return self.session(server, client, chain).get(path, ctx=ctx)

    def third_party(self, source: GridFtpServer, dest: GridFtpServer,
                    client: Host, chain: Sequence[Certificate],
                    src_path: str, dst_path: str,
                    ctx: Optional[RequestContext] = None) -> Process:
        if not self.enabled:
            return source.third_party_transfer(client, chain, src_path,
                                               dest, dst_path, ctx=ctx)
        return self.session(source, client, chain).third_party(
            src_path, self.session(dest, client, chain), dst_path, ctx=ctx)

    @property
    def open_sessions(self) -> int:
        return sum(1 for s in self._sessions.values() if s.open)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        state = "on" if self.enabled else "off"
        return (f"<GridFtpSessionPool {state} "
                f"sessions={len(self._sessions)}>")
