"""K-GRAM: the gatekeeper — the grid's rigid job-submission interface.

Everything enters the site through here: an authenticated ``submit``
carrying an RSL string, plus ``status`` / ``cancel`` / ``fetch_output``.
The interface is deliberately narrow (the JSE model): no service
deployment, no custom environments — exactly the constraint that makes
onServe's translation layer necessary.

The paper notes "K-GRAM permits to submit a large number of jobs quite
efficiently" (§VIII.B): submission here is a short control exchange plus
an authentication, independent of executable size (staging is GridFTP's
job), which is why many-small-jobs workloads amortize well.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Sequence

from repro.core.context import RequestContext, span
from repro.errors import JobNotFound, SubmissionRefused
from repro.faults.injector import get_injector
from repro.grid.job import JobState
from repro.grid.rsl import parse_rsl
from repro.grid.site import GridSite
from repro.hardware.host import Host
from repro.security.gsi import GsiAcceptor
from repro.security.x509 import Certificate
from repro.simkernel.events import Event
from repro.simkernel.process import Process
from repro.telemetry.events import bus
from repro.telemetry.gauges import gauges

__all__ = ["GramGatekeeper"]


class GramGatekeeper:
    """The GRAM endpoint of one grid site."""

    #: Control bytes for a submit exchange (RSL travels inside).
    SUBMIT_OVERHEAD_BYTES = 1536
    #: Control bytes for status/cancel/poll exchanges.
    POLL_BYTES = 768
    #: Head-node CPU per request (authorization, RSL handling, LRM talk).
    REQUEST_CPU = 0.05
    #: Marginal control bytes per extra job folded into a batch exchange
    #: (a job id + a flag ride in the request that already paid the
    #: authentication/envelope cost once).
    BATCH_ITEM_BYTES = 32
    #: Marginal head-node CPU per extra job in a batch (one table lookup
    #: vs a full authorization + envelope parse).
    BATCH_ITEM_CPU = 0.001
    #: Control bytes per push notification (a small state-change
    #: callback message, no envelope negotiation — the connection the
    #: subscription holds open already paid it).
    NOTIFY_BYTES = 256

    def __init__(self, site: GridSite):
        self.site = site
        self.sim = site.sim
        self.host = site.head
        self.submissions = 0
        self.refusals = 0
        #: Data-path accounting (plain counters, never simulation events):
        #: control-plane bytes exchanged, number of gatekeeper exchanges,
        #: and the modelled head-node CPU cost — REQUEST_CPU per exchange
        #: plus BATCH_ITEM_CPU per extra batched job.  The ablation in
        #: ``scenarios/datapath.py`` reads these; the timeline never does.
        self.control_bytes = 0
        self.exchanges = 0
        self.head_cpu_modeled = 0.0
        #: job_id -> completion event (fires with the terminal job).
        self._completions: Dict[str, Event] = {}
        #: Push path (ROADMAP item 1): the durable notification queue
        #: this gatekeeper publishes job-state changes to, if its site
        #: "supports" callbacks.  Heterogeneous on purpose: an attached
        #: queue with ``capable=False`` is never published to.
        self.notify_queue = None
        self.notify_capable = False
        #: Unsubscribes the attached queue's ``sched.start`` mirror.
        self._unmirror = None
        #: Notification accounting (plain counters, like the data-path
        #: ones): messages pushed and their modelled control bytes.
        #: Deliberately *not* folded into ``exchanges`` — a push is not
        #: a client-initiated poller exchange.
        self.notifications = 0
        self.notify_bytes = 0
        #: Observability plane: concurrent gatekeeper exchanges become a
        #: gauge (the "GRAM queue" of §VIII.D), submissions become events.
        self._bus = bus(self.sim)
        self._inflight = gauges(self.sim).gauge(
            f"gram.{site.name}.inflight", unit="reqs")

    def _account(self, nbytes: int, jobs: int = 1) -> None:
        """Book one control exchange covering *jobs* jobs."""
        self.control_bytes += nbytes
        self.exchanges += 1
        self.head_cpu_modeled += (self.REQUEST_CPU
                                  + self.BATCH_ITEM_CPU * (jobs - 1))

    # -- push notifications (ROADMAP item 1) ---------------------------------

    def attach_notify(self, queue, capable: bool = True) -> None:
        """Wire this gatekeeper to the durable notification queue.

        With ``capable=True`` the site registers in the queue's
        capability set, every ``submit`` publishes the job's lifecycle
        (submit-frame state, then the terminal state the moment it is
        reached — same frame as the state change, PR 8's durability
        discipline), and the scheduler's ``sched.start`` events are
        mirrored into the ``job_states`` table (a row write only: bus
        observers must stay pure).  With ``capable=False`` the queue is
        merely referenced — nothing is ever published, recorded or
        scheduled, which is what keeps an attached-but-incapable queue
        byte-invisible to the goldens.  Attaching again *replaces*: the
        previous queue's mirror is unsubscribed, so a detached queue
        stops writing ``job_states`` rows.
        """
        if self._unmirror is not None:
            self._unmirror()
            self._unmirror = None
        self.notify_queue = queue
        self.notify_capable = capable
        if not capable:
            return
        queue.attach_site(self.site.name)
        prefix = f"{self.site.name}-job-"
        self._unmirror = self._bus.subscribe(
            lambda ev: queue.record_state(
                self.site.name, ev.fields["job_id"], JobState.ACTIVE.value)
            if ev.fields.get("job_id", "").startswith(prefix) else None,
            kinds=["sched.start"])

    def _push_state(self, job_id: str, state: str, terminal: bool,
                    error: bool = False) -> None:
        """Publish one state change (and book its modelled bytes)."""
        self.notifications += 1
        self.notify_bytes += self.NOTIFY_BYTES
        self.notify_queue.publish(self.site.name, job_id, state,
                                  terminal=terminal, error=error)

    # -- operations (all simulation processes) ------------------------------

    def submit(self, client: Host, chain: Sequence[Certificate],
               rsl_text: str,
               ctx: Optional[RequestContext] = None) -> Process:
        """Submit a job described by *rsl_text*; value is the job id."""

        def op() -> Generator[Event, None, str]:
            rid = ctx.request_id if ctx is not None else None
            injector = get_injector(self.sim)
            self._inflight.adjust(+1)
            try:
                with span(ctx, "gram:submit", site=self.site.name):
                    if (injector is not None
                            and injector.down(self.site.name)):
                        self.refusals += 1
                        raise SubmissionRefused(
                            f"{self.site.name}: gatekeeper unreachable "
                            f"(site outage)")
                    handshake = GsiAcceptor.handshake_bytes(chain)
                    self._account(handshake + self.SUBMIT_OVERHEAD_BYTES
                                  + len(rsl_text) + 512)
                    yield client.send(
                        self.host,
                        handshake + self.SUBMIT_OVERHEAD_BYTES + len(rsl_text),
                        label="gram-submit")
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
                    yield self.host.compute(self.REQUEST_CPU, tag="gram")
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
                            self._push_state(job.job_id, "lost",
                                             terminal=True, error=True)
                        self.submissions += 1
                        yield self.host.send(client, 512,
                                             label="gram-handle")
                        return job.job_id
                    done = self.site.run_job(job)
                    self._completions[job.job_id] = done
                    if self.notify_capable:
                        if not job.is_terminal:
                            # Same frame as the submission's state change.
                            self._push_state(job.job_id, job.state.value,
                                             terminal=False)
                        done.add_callback(
                            lambda ev, jid=job.job_id: self._push_state(
                                jid, ev._value.state.value, terminal=True)
                            if ev._ok else None)
                    self.submissions += 1
                    self._bus.emit("gram.submit", layer="grid",
                                   request_id=rid, site=self.site.name,
                                   job_id=job.job_id)
                    yield self.host.send(client, 512, label="gram-handle")
            finally:
                self._inflight.adjust(-1)
            return job.job_id

        return self.sim.process(op(), name="gram-submit")

    def status(self, client: Host, job_id: str,
               ctx: Optional[RequestContext] = None) -> Process:
        """Query a job's state; value is the :class:`JobState`."""

        def op() -> Generator[Event, None, JobState]:
            injector = get_injector(self.sim)
            with span(ctx, "gram:status", site=self.site.name, job=job_id):
                if injector is not None and injector.down(self.site.name):
                    raise SubmissionRefused(
                        f"{self.site.name}: gatekeeper unreachable "
                        f"(site outage)")
                self._account(self.POLL_BYTES + 256)
                yield client.send(self.host, self.POLL_BYTES,
                                  label="gram-status")
                yield self.host.compute(0.005, tag="gram")
                job = self.site.get_job(job_id)
                yield self.host.send(client, 256, label="gram-status-rsp")
            return job.state

        return self.sim.process(op(), name=f"gram-status:{job_id}")

    def cancel(self, client: Host, job_id: str,
               ctx: Optional[RequestContext] = None) -> Process:
        """Cancel a queued/running job; value is True."""

        def op() -> Generator[Event, None, bool]:
            injector = get_injector(self.sim)
            with span(ctx, "gram:cancel", site=self.site.name, job=job_id):
                if injector is not None and injector.down(self.site.name):
                    raise SubmissionRefused(
                        f"{self.site.name}: gatekeeper unreachable "
                        f"(site outage)")
                self._account(self.POLL_BYTES + 256)
                yield client.send(self.host, self.POLL_BYTES,
                                  label="gram-cancel")
                yield self.host.compute(0.01, tag="gram")
                self.site.cancel_job(job_id)
                yield self.host.send(client, 256, label="gram-cancel-rsp")
            return True

        return self.sim.process(op(), name=f"gram-cancel:{job_id}")

    def fetch_output_many(self, client: Host, job_ids: Sequence[str],
                          ctx: Optional[RequestContext] = None) -> Process:
        """Tentative-poll k jobs in one exchange; value maps id -> bytes.

        One request envelope, one amortized site disk read covering all
        jobs' partial output, one response.  A lost job (the gatekeeper
        has no record) maps to ``None`` — the caller decides whether
        that is fatal, exactly as a raised :class:`JobNotFound` would be
        on the per-job path.
        """
        ids = list(job_ids)

        def op() -> Generator[Event, None, Dict[str, Optional[bytes]]]:
            if not ids:
                return {}
            injector = get_injector(self.sim)
            k = len(ids)
            with span(ctx, "gram:fetch-output-many", site=self.site.name,
                      jobs=k):
                if injector is not None and injector.down(self.site.name):
                    raise SubmissionRefused(
                        f"{self.site.name}: gatekeeper unreachable "
                        f"(site outage)")
                request = self.POLL_BYTES + self.BATCH_ITEM_BYTES * (k - 1)
                yield client.send(self.host, request,
                                  label="gram-output-many")
                yield self.host.compute(
                    0.005 + self.BATCH_ITEM_CPU * (k - 1), tag="gram")
                outputs: Dict[str, Optional[bytes]] = {}
                total = 0
                for job_id in ids:
                    try:
                        data = self.site.partial_output(job_id)
                    except JobNotFound:
                        outputs[job_id] = None
                        continue
                    outputs[job_id] = data
                    total += len(data)
                if total:
                    # One seek/read pass over the spool covers the batch.
                    yield self.host.disk_read(total)
                response = max(total, 128) + 16 * (k - 1)
                self._account(request + 128 + 16 * (k - 1), jobs=k)
                yield self.host.send(client, response,
                                     label="gram-output-many-rsp")
            self._bus.emit("gram.fetch_output_many", layer="grid",
                           request_id=ctx.request_id if ctx else None,
                           site=self.site.name, jobs=k, nbytes=total)
            return outputs

        return self.sim.process(op(), name=f"gram-output-many:{len(ids)}")

    def fetch_output(self, client: Host, job_id: str,
                     ctx: Optional[RequestContext] = None) -> Process:
        """Fetch whatever output exists *now* (the tentative poll).

        For a running job this transfers the partial placeholder bytes;
        for a DONE job, the real output.  The value is the bytes read.
        This is the operation the watchdog repeats on a fixed interval
        because job status "can't be retrieved" through the agent
        (§VIII.B) — each call costs a disk read at the site and a
        transfer back, producing the periodic write peaks in Figs 6-7.
        """

        def op() -> Generator[Event, None, bytes]:
            injector = get_injector(self.sim)
            with span(ctx, "gram:fetch-output", job=job_id):
                if injector is not None and injector.down(self.site.name):
                    raise SubmissionRefused(
                        f"{self.site.name}: gatekeeper unreachable "
                        f"(site outage)")
                self._account(self.POLL_BYTES + 128)
                yield client.send(self.host, self.POLL_BYTES,
                                  label="gram-output")
                data = self.site.partial_output(job_id)
                if data:
                    yield self.host.disk_read(len(data))
                yield self.host.send(client, max(len(data), 128),
                                     label="gram-output-rsp")
            self._bus.emit("gram.fetch_output", layer="grid",
                           request_id=ctx.request_id if ctx else None,
                           site=self.site.name, job_id=job_id,
                           nbytes=len(data))
            return data

        return self.sim.process(op(), name=f"gram-output:{job_id}")

    def completion_event(self, job_id: str) -> Event:
        """The event that fires when *job_id* reaches a terminal state."""
        try:
            return self._completions[job_id]
        except KeyError:
            raise SubmissionRefused(
                f"gatekeeper has no record of job {job_id!r}") from None
