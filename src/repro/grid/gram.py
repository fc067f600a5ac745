"""K-GRAM: the gatekeeper — the grid's rigid job-submission interface.

Everything enters the site through here: an authenticated ``submit``
carrying an RSL string, plus ``status`` / ``cancel`` / ``fetch_output``.
The interface is deliberately narrow (the JSE model): no service
deployment, no custom environments — exactly the constraint that makes
onServe's translation layer necessary.

The paper notes "K-GRAM permits to submit a large number of jobs quite
efficiently" (§VIII.B): submission here is a short control exchange plus
an authentication, independent of executable size (staging is GridFTP's
job), which is why many-small-jobs workloads amortize well.  Per
operation, every submit opens with a fresh GSI handshake on its one
message; on a pooled :class:`~repro.grid.channel.GsiChannel` only the
first does, and every submit is still authorized (``acceptor.accept``).
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from repro.core.context import RequestContext, span
from repro.errors import JobNotFound, SubmissionRefused
from repro.faults.injector import get_injector
from repro.grid.job import GridJob, JobState
from repro.grid.rsl import parse_rsl
from repro.grid.site import GridSite
from repro.hardware.host import Host
from repro.security.gsi import GsiAcceptor
from repro.security.x509 import Certificate
from repro.simkernel.events import Event
from repro.telemetry.events import bus
from repro.telemetry.gauges import gauges

__all__ = ["GramGatekeeper"]


class GramGatekeeper:
    """The GRAM endpoint of one grid site."""

    #: Names this endpoint's pooled channels (gauge and bus event prefix).
    PROTOCOL = "gram"
    #: Control bytes for a submit exchange (RSL travels inside).
    SUBMIT_OVERHEAD_BYTES = 1536
    #: Control bytes for status/cancel/poll exchanges.
    POLL_BYTES = 768
    #: Head-node CPU per submit (authorization, RSL handling, LRM talk).
    REQUEST_CPU = 0.05
    #: Control bytes per push notification (a small state-change
    #: callback message, no envelope negotiation — the connection the
    #: subscription holds open already paid it).
    NOTIFY_BYTES = 256
    #: Largest output a ``done`` job's terminal notification carries
    #: itself; a larger one is fetched (``fetch_output``) as before.
    INLINE_OUTPUT_BYTES = 4 * 1024

    def __init__(self, site: GridSite):
        self.site = site
        self.sim = site.sim
        self.host = site.head
        self.submissions = 0
        self.refusals = 0
        #: Data-path accounting (plain counters, never simulation events):
        #: control-plane bytes exchanged and number of gatekeeper
        #: exchanges.  ``scenarios/datapath.py`` reads these; the
        #: timeline never does.
        self.control_bytes = 0
        self.exchanges = 0
        #: GSI handshakes paid, and submits carried on an already-open
        #: pooled channel instead (:class:`~repro.grid.channel.GsiChannel`).
        self.handshakes = 0
        self.pooled_ops = 0
        #: Push path (ROADMAP item 1): the notification queue this
        #: gatekeeper publishes each job's terminal state to, if its site
        #: "supports" callbacks.  Heterogeneous on purpose: an attached
        #: queue with ``capable=False`` is never published to.
        self.notify_queue = None
        self.notify_capable = False
        #: Notification accounting (plain counters, like the data-path
        #: ones): messages pushed and their modelled bytes (an inline
        #: output included).
        #: Deliberately *not* folded into ``exchanges`` — a push is not
        #: a client-initiated poller exchange.
        self.notifications = 0
        self.notify_bytes = 0
        #: Observability plane: concurrent gatekeeper exchanges become a
        #: gauge (the "GRAM queue" of §VIII.D), submissions become events.
        self._bus = bus(self.sim)
        self._inflight = gauges(self.sim).gauge(
            f"gram.{site.name}.inflight", unit="reqs")

    def _account(self, nbytes: int) -> None:
        """Book one control exchange."""
        self.control_bytes += nbytes
        self.exchanges += 1

    # -- push notifications (ROADMAP item 1) ---------------------------------

    def attach_notify(self, queue, capable: bool = True) -> None:
        """Wire this gatekeeper to the notification queue.

        With ``capable=True`` the site registers in the queue's
        capability set and every ``submit`` publishes the job's terminal
        state the moment it is reached (same frame as the state change,
        PR 8's durability discipline).  With ``capable=False`` the queue
        is merely referenced — nothing is ever published or scheduled,
        which is what keeps an attached-but-incapable queue
        byte-invisible to the goldens.  Attaching again replaces the
        queue later jobs publish to.
        """
        self.notify_queue = queue
        self.notify_capable = capable
        if capable:
            queue.attach_site(self.site.name)

    def _push(self, job: GridJob, lost: bool = False) -> None:
        """Publish *job*'s terminal state — ``lost``, an error, when the
        LRM forgot it — and book its modelled bytes.  A ``done`` job's
        output rides on the message when it fits
        :attr:`INLINE_OUTPUT_BYTES`: the job manager holds the stdout it
        just wrote, so the subscriber needs no ``fetch_output``
        exchange."""
        output = job.output if (
            job.state is JobState.DONE
            and len(job.output) <= self.INLINE_OUTPUT_BYTES) else None
        self.notifications += 1
        self.notify_bytes += self.NOTIFY_BYTES + len(output or b"")
        self.notify_queue.publish(
            self.site.name, job.job_id, "lost" if lost else job.state.value,
            error=lost, output=output)

    # -- operations: generators the caller drives with ``yield from`` -------

    def _handshake(self, client: Host, chain: Sequence[Certificate],
                   carry: int = 0) -> Generator[Event, None, None]:
        """Per-operation control: a fresh GSI handshake on the one message
        that also carries the request (*carry* bytes) — there is no
        separate command round trip.  Authorization is the submit body's
        ``accept``, which runs on every submit."""
        handshake = GsiAcceptor.handshake_bytes(chain)
        self.control_bytes += handshake
        self.handshakes += 1
        yield client.send(self.host, handshake + carry, label="gram-submit")

    def _submit(self, client: Host, chain: Sequence[Certificate], control,
                rsl_text: str, ctx: Optional[RequestContext], **mode
                ) -> Generator[Event, None, str]:
        """Submit: one request message (*control* puts the mode's
        preamble in front of it), authorization, LRM hand-off, handle."""
        rid = ctx.request_id if ctx is not None else None
        injector = get_injector(self.sim)
        self._inflight.adjust(+1)
        try:
            with span(ctx, "gram:submit", site=self.site.name, **mode):
                if (injector is not None
                        and injector.down(self.site.name)):
                    self.refusals += 1
                    raise SubmissionRefused(
                        f"{self.site.name}: gatekeeper unreachable "
                        f"(site outage)")
                request = self.SUBMIT_OVERHEAD_BYTES + len(rsl_text)
                self._account(request + 512)
                yield from control(request)
                try:
                    gsi = self.site.acceptor.accept(chain, self.sim.now)
                    description = parse_rsl(rsl_text)
                    if (injector is not None and
                            injector.fire("gram.refuse", self.site.name)):
                        raise SubmissionRefused(
                            f"{self.site.name}: gatekeeper refused the "
                            f"submission (transient LRM rejection)")
                except Exception as exc:
                    self.refusals += 1
                    self._bus.emit("gram.refused", layer="grid",
                                   request_id=rid, site=self.site.name,
                                   reason=type(exc).__name__)
                    yield self.host.send(client, 512, label="gram-refused")
                    raise
                yield self.host.compute(self.REQUEST_CPU)
                job = self.site.create_job(description, owner=gsi.subject)
                if (injector is not None and
                        injector.fire("gram.lost_job", self.site.name)):
                    # The classic lost job: the gatekeeper hands out a
                    # perfectly good handle, but the LRM never hears of
                    # it — later polls find nothing (JobNotFound).  A
                    # notify-capable job manager *knows* it lost track
                    # and surfaces that as an error callback, so push
                    # subscribers fail over as fast as they complete.
                    self.site.drop_job(job.job_id)
                    if self.notify_capable:
                        self._push(job, lost=True)
                    self.submissions += 1
                    yield self.host.send(client, 512, label="gram-handle")
                    return job.job_id
                done = self.site.run_job(job)
                if self.notify_capable:
                    done.add_callback(
                        lambda ev: self._push(ev._value) if ev._ok else None)
                self.submissions += 1
                self._bus.emit("gram.submit", layer="grid",
                               request_id=rid, site=self.site.name,
                               job_id=job.job_id, **mode)
                yield self.host.send(client, 512, label="gram-handle")
        finally:
            self._inflight.adjust(-1)
        return job.job_id

    def submit(self, client: Host, chain: Sequence[Certificate],
               rsl_text: str, ctx: Optional[RequestContext] = None
               ) -> Generator[Event, None, str]:
        """Submit a job described by *rsl_text*; the value is the job id."""
        return self._submit(
            client, chain, lambda carry: self._handshake(client, chain, carry),
            rsl_text, ctx)

    def _refuse_if_down(self) -> None:
        injector = get_injector(self.sim)
        if injector is not None and injector.down(self.site.name):
            raise SubmissionRefused(
                f"{self.site.name}: gatekeeper unreachable (site outage)")

    def status(self, client: Host, job_id: str,
               ctx: Optional[RequestContext] = None
               ) -> Generator[Event, None, JobState]:
        """Query a job's state; the value is the :class:`JobState`."""
        with span(ctx, "gram:status", site=self.site.name, job=job_id):
            self._refuse_if_down()
            self._account(self.POLL_BYTES + 256)
            yield client.send(self.host, self.POLL_BYTES, label="gram-status")
            yield self.host.compute(0.005)
            job = self.site.get_job(job_id)
            yield self.host.send(client, 256, label="gram-status-rsp")
        return job.state

    def cancel(self, client: Host, job_id: str,
               ctx: Optional[RequestContext] = None
               ) -> Generator[Event, None, bool]:
        """Cancel a queued/running job; the value is True."""
        with span(ctx, "gram:cancel", site=self.site.name, job=job_id):
            self._refuse_if_down()
            self._account(self.POLL_BYTES + 256)
            yield client.send(self.host, self.POLL_BYTES, label="gram-cancel")
            yield self.host.compute(0.01)
            self.site.cancel_job(job_id)
            yield self.host.send(client, 256, label="gram-cancel-rsp")
        return True

    def fetch_output(self, client: Host, job_id: str,
                     ctx: Optional[RequestContext] = None
                     ) -> Generator[Event, None, bytes]:
        """Fetch whatever output exists *now* (the tentative poll).

        For a running job this transfers the partial placeholder bytes;
        for a DONE job, the real output.  The value is the bytes read.
        This is the operation the watchdog repeats on a fixed interval
        because job status "can't be retrieved" through the agent
        (§VIII.B) — each call costs a disk read at the site and a
        transfer back, producing the periodic write peaks in Figs 6-7.
        """
        with span(ctx, "gram:fetch-output", job=job_id):
            self._refuse_if_down()
            self._account(self.POLL_BYTES + 128)
            yield client.send(self.host, self.POLL_BYTES, label="gram-output")
            data = self.site.partial_output(job_id)
            if data:
                yield self.host.disk_read(len(data))
            yield self.host.send(client, max(len(data), 128),
                                 label="gram-output-rsp")
        self._bus.emit("gram.fetch_output", layer="grid",
                       request_id=ctx.request_id if ctx else None,
                       site=self.site.name, job_id=job_id, nbytes=len(data))
        return data

    def completion_event(self, job_id: str) -> Event:
        """The event that fires when *job_id* reaches a terminal state
        (see :meth:`GridSite.completion`)."""
        try:
            return self.site.completion(job_id)
        except JobNotFound:
            raise SubmissionRefused(
                f"gatekeeper has no record of job {job_id!r}") from None
