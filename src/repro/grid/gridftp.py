"""GridFTP: authenticated, bandwidth-limited file transfer to a site.

Every operation is a generator its caller drives with ``yield from``,
so it runs in the caller's process (a crash of that process unwinds it):
the GSI handshake bytes and the file bytes travel over the (typically
slow WAN) path to the site's head node, then land on its disk.  The
~60-second, 80-90 KB/s upload plateau in Figure 7 is exactly a ``put``
through a thin uplink.

Two control-path modes exist:

* **Per-operation** (:meth:`GridFtpServer.put` / :meth:`~GridFtpServer.get`
  / :meth:`~GridFtpServer.third_party_transfer`) — every transfer pays a
  fresh GSI handshake plus control bytes, the faithful pay-per-operation
  cost the goldens pin down.
* **Pooled** — one authenticated control channel per ``(client, site,
  credential)``, reused across pipelined operations
  (:class:`~repro.grid.channel.GsiChannel`, the same channel the
  gatekeeper's submits ride).
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from repro.core.context import RequestContext, span
from repro.errors import TransferError
from repro.faults.injector import get_injector
from repro.grid.site import GridSite
from repro.hardware.host import Host
from repro.security.gsi import GsiAcceptor
from repro.security.x509 import Certificate
from repro.simkernel.events import Event
from repro.telemetry.events import bus
from repro.telemetry.gauges import gauges

__all__ = ["GridFtpServer"]


class GridFtpServer:
    """The file-transfer endpoint of one grid site."""

    #: Names this endpoint's pooled channels (gauge and bus event prefix).
    PROTOCOL = "gridftp"
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
        #: GSI handshakes paid, and operations carried on an already-open
        #: pooled channel instead (:class:`~repro.grid.channel.GsiChannel`).
        self.handshakes = 0
        self.pooled_ops = 0
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
                   streams: int = 1, label: str = "gridftp-ctl",
                   carry: int = 0) -> Generator[Event, None, None]:
        """Per-operation control: a fresh GSI handshake + command bytes
        (+ *carry* bytes of the operation's own, none for a transfer)."""
        nbytes = (GsiAcceptor.handshake_bytes(chain)
                  + streams * self.CONTROL_BYTES)
        yield client.send(self.host, nbytes + carry, label=label)
        self._authenticate(chain)
        self.control_bytes += nbytes
        self.handshakes += 1

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
            self.site.begin_put(path, where[2])
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
                self.CPU_PER_MB * len(data) / (1024 * 1024))
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
            # The copy is a PUT at *dest* like any other, one range of
            # the transfer the source's bytes came in as (if ranged): a
            # stage of the same bytes in flight there is joined, not
            # dropped.
            transfer = self.site.transfer_of(src_path)
            dest.site.begin_put(dst_path, transfer)
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
            dest.site.store_file(dst_path, data, 0, len(data), transfer)
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
            transfer: Optional[str] = None) -> Generator[Event, None, int]:
        """Upload *data* to *path* in the site storage area; the value is
        the byte count.

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
        return self._put(client,
                         lambda: self._handshake(client, chain, streams),
                         path, data, streams, ctx, (offset, total, transfer))

    def get(self, client: Host, chain: Sequence[Certificate],
            path: str, ctx: Optional[RequestContext] = None
            ) -> Generator[Event, None, bytes]:
        """Download *path* from the site storage area."""
        return self._get(client, lambda: self._handshake(client, chain),
                         path, ctx)

    def third_party_transfer(self, client: Host,
                             chain: Sequence[Certificate],
                             src_path: str, dest: "GridFtpServer",
                             dst_path: str,
                             ctx: Optional[RequestContext] = None
                             ) -> Generator[Event, None, int]:
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

        return self._third_party(control, src_path, dest, dst_path, ctx)

    def exists(self, path: str) -> bool:
        """Control-channel existence check (no data transfer modelled)."""
        return self.site.has_file(path)
