"""The GridService template runtime: what a generated service *does*.

"The GridService 'template-class' contains the code that actually
initializes the execution of an associated executable on the Grid"
(paper §VI).  Its ``execute`` operation implements the §VII.B workflow:

1. *File retrieval* — load the executable from the database (CPU peak:
   "loading and decompressing the file from the database") and store it
   in a temporary location on the appliance disk.
2. *Authentication* — establish an agent session (MyProxy logon) unless
   a fresh one is cached.
3. *Upload* — push the executable to the chosen site via the agent
   (GridFTP over the thin WAN uplink: Figure 7's 60-second plateau).
   Faithfully, the file "will even be reloaded when executed a 2nd
   time"; under ``config.stage_once`` (the ``upload_cache`` ablation,
   or the ``datapath`` plane) a site the store shows holding these
   exact bytes is skipped, and one that lacks them is fed from a site
   that has them instead of over the uplink.  On a routed fabric
   (publish-time staging) step 1 moves behind the site choice: the
   site is checked against the digest the service row records — or
   waited for while a republish's seed fills it — and only a miss
   loads from the database.
4. *Job description generation* — build the RSL from the invocation
   parameters (second CPU peak: "when the job is being created and
   submitted").  Under publish-time staging its CPU runs from the
   authentication on, beside the site choice and the stage.
5. *Job submission* — through the agent to the gatekeeper.
6. *Tentative output polling* — the status workaround: on a fixed
   interval fetch whatever output exists, write it to the local disk
   (the periodic disk-write peaks of Figures 6-7), and check for the
   stdout file's existence; finish when it appears.

Resilience: steps 3-6 run under :func:`_run_with_failover` — transient
failures (see :func:`repro.errors.is_retryable`) are retried per call
site with the middleware's backoff policy, trip the failed site's
circuit breaker, and fail the whole invocation over to the next untried
site (re-staging the executable via GridFTP) until the configured
failover budget or the request deadline runs out.  With no faults
injected none of this machinery creates a single extra simulation
event.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, TYPE_CHECKING

from repro.core.context import RequestContext, span
from repro.core.datastructures import ExecutableRecord, service_name_for
from repro.core.session import SessionCache
from repro.core.watchdog import await_waiter, poll_until
from repro.cyberaide.jobspec import CyberaideJobSpec, staged_path_for
from repro.errors import (
    InvocationError, JobError, JobNotFound, ReplicaDown, ReproError,
    TransferSuperseded, is_retryable, root_cause_name,
)
from repro.resilience.breaker import OPEN
from repro.resilience.retry import retry_call
from repro.simkernel.events import Event
from repro.simkernel.process import Interrupt

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.onserve import OnServe

__all__ = ["GridServiceRuntime", "InvocationReport"]

#: Failures of a call whose agent session died: log on again.
_DEAD_CREDENTIAL = ("CredentialExpired", "AuthenticationFailed")


class InvocationReport:
    """Timing breakdown of one execute() call (for the benchmarks)."""

    __slots__ = ("service_name", "started_at", "finished_at", "retrieval",
                 "auth", "upload", "submit", "polling", "polls", "job_id",
                 "output_bytes", "ok", "error")

    def __init__(self, service_name: str, started_at: float):
        self.service_name = service_name
        self.started_at = started_at
        self.finished_at: Optional[float] = None
        self.retrieval = 0.0
        self.auth = 0.0
        self.upload = 0.0
        self.submit = 0.0
        self.polling = 0.0
        self.polls = 0
        self.job_id = ""
        self.output_bytes = 0
        self.ok = False
        self.error = ""

    @property
    def total(self) -> float:
        if self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at

    @property
    def overhead(self) -> float:
        """Middleware time excluding the grid-side wait (poll phase)."""
        return self.retrieval + self.auth + self.upload + self.submit

    def as_dict(self) -> Dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__} | {
            "total": self.total, "overhead": self.overhead}


class GridServiceRuntime:
    """The handler behind one generated service."""

    #: CPU for RSL generation + submission bookkeeping (2nd CPU peak).
    SUBMIT_CPU = 0.25
    #: Every generated job is one process on the site's default queue.
    JOB_QUEUE = "normal"
    JOB_COUNT = 1
    #: ... and may run for an hour before the LRM kills it.
    JOB_WALLTIME = 3600
    #: Smallest range of a staged executable worth its own uplink.  A
    #: carried range pays a fixed ~0.1 s (LAN hop, peer SOAP dispatch,
    #: pooled GridFTP control); at the uplink's 85 KB/s that is the wire
    #: time of ~8.5 KB, so a range earns its own uplink above that —
    #: rounded up to 16 KB.
    STRIPE_MIN_BYTES = 16 * 1024

    def __init__(self, onserve: "OnServe", record: ExecutableRecord):
        self.onserve = onserve
        self.record = record
        self.sim = onserve.sim
        #: The agent session this runtime logs on with: the replica's,
        #: shared by every runtime, under coalescing; else its own.
        self.session_cache = (onserve.session_cache
                              if onserve.config.coalesce
                              else SessionCache(onserve))
        self._rr_cursor = 0
        #: Asynchronous invocations in flight: ticket -> background process.
        self._tickets: Dict[str, Any] = {}
        #: Tickets issued so far: a collected ticket's number is never
        #: handed out again.
        self._tickets_issued = 0
        #: execute() calls started, and how many of them returned output.
        self.invocations = 0
        self.invocations_ok = 0
        #: The report of the newest execute() call (None before the first).
        self.last_report: Optional[InvocationReport] = None

    # -- the SOAP handler -----------------------------------------------------

    def handler(self, operation: str, params: Dict[str, Any],
                ctx: Optional[RequestContext] = None):
        if operation == "describe":
            return self._describe()
        if operation == "execute":
            return self._execute(params, ctx=ctx)
        if operation == "submit":
            return self._submit_async(params, ctx=ctx)
        if operation == "poll":
            return self._poll_async(params["ticket"])
        if operation == "result":
            return self._result_async(params["ticket"])
        raise InvocationError(f"generated service has no operation "
                              f"{operation!r}")  # unreachable via SOAP

    # -- asynchronous invocation (submit / poll / result) ----------------------

    def _submit_async(self, params: Dict[str, Any],
                      ctx: Optional[RequestContext] = None
                      ) -> Generator[Event, None, str]:
        """Start the execute pipeline in the background; return a ticket."""
        yield self.onserve.host.compute(0.002, tag="service")
        self._tickets_issued += 1
        ticket = f"tkt-{self.record.name}-{self._tickets_issued:05d}"
        # The background work outlives this SOAP request: give it a
        # derived context so its trace collects separately.
        child = ctx.child() if ctx is not None else None
        proc = self.sim.process(self._execute(params, ctx=child),
                                name=f"async:{ticket}")
        # Failures are delivered through result(), not as stray crashes.
        proc.add_callback(lambda ev: ev.defused() if not ev._ok else None)
        self._tickets[ticket] = proc
        return ticket

    def _poll_async(self, ticket: str) -> Generator[Event, None, bool]:
        yield self.onserve.host.compute(0.001, tag="service")
        return self._ticket(ticket).triggered

    def _result_async(self, ticket: str) -> Generator[Event, None, str]:
        yield self.onserve.host.compute(0.001, tag="service")
        proc = self._ticket(ticket)
        if not proc.triggered:
            raise InvocationError(
                f"ticket {ticket!r} is still running (poll first)")
        del self._tickets[ticket]
        if not proc.ok:
            raise InvocationError(
                f"ticket {ticket!r} failed: {proc.value}")
        return proc.value

    def _ticket(self, ticket: str):
        proc = self._tickets.get(ticket)
        if proc is None:
            raise InvocationError(f"unknown ticket {ticket!r}")
        return proc

    def _describe(self) -> Generator[Event, None, str]:
        yield self.onserve.host.compute(0.001, tag="service")
        return self.record.description or self.record.name

    # -- §VII.B: the execute workflow -----------------------------------------------

    def _execute(self, params: Dict[str, Any],
                 ctx: Optional[RequestContext] = None
                 ) -> Generator[Event, None, str]:
        cfg = self.onserve.config
        host = self.onserve.host
        report = self.last_report = InvocationReport(self.record.name,
                                                     self.sim.now)
        self.invocations += 1
        held_bytes = 0  # RAM held for the in-flight payload
        exe = None
        crashed = False
        tier = cfg.db_tier
        chunked = tier.chunk_bytes > 0
        # When the DB-scale plane is on, fetch time gets its own db:fetch
        # span so the critical-path analyzer attributes it to db/storage
        # instead of folding it into service self-time.
        db_tier_on = chunked or tier.mvcc or tier.serialize
        db_ctx = ctx if db_tier_on else None

        def retrieve():
            # 1. File retrieval: DB load + temp copy on local disk.  The
            #    decompressed payload sits in RAM until staged to the grid.
            #    Under coalescing, concurrent invocations share one DB
            #    fetch (the leader's) instead of N decompressions.
            nonlocal exe, held_bytes
            mark = self.sim.now
            with span(ctx, "service:retrieval", executable=self.record.name):
                def to_temp(nbytes):
                    # Streamed retrieval: each decompressed chunk goes
                    # straight from the DB fetch to the temp file, so
                    # resident RAM stays O(chunk) instead of O(blob).
                    yield host.disk_write(nbytes)

                def db_fetch():
                    with span(db_ctx, "db:fetch",
                              executable=self.record.name):
                        return (yield from self.onserve.dbmanager.load(
                            self.record.name,
                            on_chunk=to_temp if chunked else None))

                exe = yield from self.onserve.flights.do(
                    ("db-load", self.onserve.replica, self.record.name),
                    db_fetch, group="db-load")
                if not chunked:
                    host.allocate_memory(exe.size)
                    held_bytes = exe.size
                    # "stored in a temporary location"
                    yield host.disk_write(exe.size)
            report.retrieval += self.sim.now - mark

        try:
            # Publish-time staging moves the retrieval behind the site
            # choice: a site holding the digest the service row records
            # is a hit that never touches the DB.
            ahead = self.onserve.stages_at_publish
            if not ahead:
                yield from retrieve()

            # 2. Authentication through the agent (cached while fresh).
            mark = self.sim.now
            with span(ctx, "service:auth"):
                yield from self.session_cache.get(ctx)
            report.auth = self.sim.now - mark
            # 4. Job description generation needs neither the site nor
            #    the bytes: under publish-time staging it runs while they
            #    are found or moved, once however many sites are tried.
            rsl_cpu = (host.compute(self.SUBMIT_CPU, tag="service")
                       if ahead else None)

            # Resource selection via the information service: the ranked
            # listing is fetched once; the failover loop below walks it.
            sites = yield from self.onserve.agent_stub.listSites(ctx=ctx)
            available = [s for s in (sites.split(",") if sites else []) if s]

            # Build the job spec from the declared parameters, in order.
            arguments = [_argument(params[p.name]) for p in self.record.params]
            tag = self.onserve.new_job_tag()
            spec = CyberaideJobSpec(
                self.record.name, arguments=arguments,
                count=self.JOB_COUNT,
                max_wall_time=self.JOB_WALLTIME,
                queue=self.JOB_QUEUE)
            staged = spec.staged_path()
            digest = ""
            if ahead:
                # The bytes the service runs now, as its row says; a
                # seed filling a site with them ranks that site first.
                store = self.onserve.store
                row = store.get_record(service_name_for(self.record.name))
                digest = (row["digest"] or "") if row is not None else ""
                flight = store.seed_flight(staged)
                if (flight is not None and flight["digest"] == digest
                        and flight["site"] in available):
                    available.remove(flight["site"])
                    available.insert(0, flight["site"])

            def attempt_on_site(site: str):
                """Steps 3-6 against one site (a delegated generator)."""
                nonlocal held_bytes
                policy = self.onserve.retry_policy

                # 3. Upload the executable to the site — every time
                #    (the faithful flaw), or under ``cfg.stage_once``
                #    only when the store does not already show these
                #    exact bytes there.  Under coalescing, concurrent
                #    invocations staging the same (site, path, bytes)
                #    share one GridFTP transfer.
                once = cfg.stage_once
                staged_hit = False
                if exe is None:
                    # The hit rule: the row's digest on the site, or a
                    # seed of it landing there; only a miss loads the
                    # bytes.
                    mark = self.sim.now
                    staged_hit = (
                        self.onserve.is_staged(site, staged, digest)
                        or (yield from self._join_seed(site, staged, digest,
                                                       ctx)))
                    report.upload += self.sim.now - mark
                    if not staged_hit:
                        yield from retrieve()
                mark = self.sim.now
                with span(ctx, "service:upload", site=site):
                    if once and not staged_hit:
                        # The digest in hand is the one loaded — which a
                        # republish may have moved since the row was read.
                        staged_hit = self.onserve.is_staged(site, staged,
                                                            exe.digest)
                    if once:
                        self.onserve.bus.emit(
                            "cache.hit" if staged_hit else "cache.miss",
                            layer="core", cache="staged",
                            request_id=ctx.request_id if ctx else None,
                            key=f"{site}:{staged}")
                    if not staged_hit:
                        if chunked:
                            pass  # payload streams off the temp copy
                        elif held_bytes == 0:
                            # Failover re-stage: the payload comes back
                            # into RAM for the second GridFTP trip.
                            host.allocate_memory(exe.size)
                            held_bytes = exe.size
                        yield from self._stage(site, staged, exe, ctx,
                                               spooled=chunked)
                    # The buffer is staged (or cached); collect it now.
                    if held_bytes:
                        host.release_memory(held_bytes)
                        held_bytes = 0
                report.upload += self.sim.now - mark

                # 4.+5. Job description generation + submission.
                mark = self.sim.now
                with span(ctx, "service:submit", site=site):
                    yield (rsl_cpu if rsl_cpu is not None
                           else host.compute(self.SUBMIT_CPU, tag="service"))
                    rsl = spec.to_rsl(job_tag=tag)

                    def submit_try():
                        session = yield from self.session_cache.get(ctx)
                        return (yield from self.onserve.agent_stub.submitJob(
                            session=session, site=site, rsl=rsl, ctx=ctx))

                    job_id = yield from retry_call(
                        self.sim, policy, submit_try, ctx=ctx,
                        label=f"submit:{site}",
                        on_retry=self._recover_session)
                report.job_id = job_id
                report.submit += self.sim.now - mark

                # 6. Wait for completion.
                mark = self.sim.now
                with span(ctx, "service:polling", job=job_id):
                    try:
                        result = yield from self._await_output(
                            self.session_cache.session, site, spec, tag,
                            job_id, report, ctx)
                    except JobError:
                        if staged_hit:
                            yield from self._drop_if_unstaged(site, staged,
                                                              ctx)
                        raise
                report.polling += self.sim.now - mark
                return result

            output = yield from self._run_with_failover(
                available, attempt_on_site, ctx)
            report.output_bytes = len(output)
            report.ok = True
            self.invocations_ok += 1
            try:
                return output.decode("utf-8")
            except UnicodeDecodeError:
                return f"(binary output, {len(output)} bytes)"
        except Exception as exc:
            report.error = f"{type(exc).__name__}: {exc}"
            # A crashed replica's attempt unwinds here and records
            # nothing: the survivor it failed over to records the row.
            crashed = (isinstance(exc, Interrupt)
                       and isinstance(exc.cause, ReplicaDown))
            raise
        finally:
            if held_bytes:
                host.release_memory(held_bytes)
            report.finished_at = self.sim.now
            if not crashed:
                self.onserve.record_invocation(
                    service_name_for(self.record.name), report)

    def _run_with_failover(self, available: List[str], attempt,
                           ctx: Optional[RequestContext] = None
                           ) -> Generator[Event, None, bytes]:
        """Drive *attempt* over sites until one succeeds (or give up).

        Transient failures (``is_retryable``) trip the failed site's
        circuit breaker and move on to the next untried site — up to the
        configured ``failover_sites`` extra attempts, while the context
        deadline allows.  Permanent failures propagate immediately, as
        does the last transient failure once sites (or the budget) run
        out.  Success closes the site's breaker.
        """
        breakers = self.onserve.breakers
        max_sites = 1 + self.onserve.config.failover_sites
        tried: List[str] = []
        last_error: Optional[BaseException] = None
        while True:
            remaining = [s for s in available if s not in tried]
            try:
                site = self._choose_site(remaining)
            except InvocationError:
                if last_error is not None:
                    raise last_error from None
                raise
            try:
                result = yield from attempt(site)
            except Exception as exc:
                tried.append(site)
                if is_retryable(exc):
                    breakers.failure(site)
                else:
                    raise
                out_of_sites = not [s for s in available if s not in tried]
                past_deadline = (ctx is not None and ctx.deadline is not None
                                 and self.sim.now >= ctx.deadline)
                if len(tried) >= max_sites or out_of_sites or past_deadline:
                    raise
                last_error = exc
                self.onserve.bus.emit(
                    "core.failover", layer="core",
                    request_id=ctx.request_id if ctx else None,
                    service=self.record.name, from_site=site,
                    error=root_cause_name(exc))
                continue
            breakers.success(site)
            return result

    def _stage(self, site: str, staged: str, exe,
               ctx: Optional[RequestContext] = None, spooled: bool = False,
               seed: Optional[str] = None) -> Generator[Event, None, None]:
        """Put *exe*'s bytes on *site*: the one stage body, an
        invocation's and a seed's.

        A generator meant to be delegated to.  Under ``stage_once`` a
        site holding the bytes feeds *site* head node to head node;
        otherwise they go up from here (*spooled*: read back off the
        temp copy first) and the store records the copy.  Under
        coalescing, concurrent stages of the same (site, path, bytes)
        on this replica share one transfer.  A seed's stage (*seed*: its
        id) gives up once a republish has cancelled the seed — before
        sending the bytes up, and before recording a copy — with
        :class:`~repro.errors.TransferSuperseded`.
        """
        onserve = self.onserve
        once = onserve.config.stage_once

        def still_wanted():
            if seed is not None and not onserve.store.owns_seed(staged, seed):
                raise TransferSuperseded(
                    f"{seed} of {staged!r} was cancelled by a republish")

        def stage():
            if once and (yield from self._replicate(
                    site, staged, exe.digest, ctx)):
                return
            still_wanted()
            if spooled:
                # Read the temp copy back for the GridFTP trip; the
                # blob never re-enters RAM whole.
                yield onserve.host.disk_read(exe.size)
            yield from self._upload(site, staged, exe, ctx)
            if once:
                still_wanted()
                onserve.mark_staged(site, staged, exe.digest)

        flights = onserve.flights
        digest = exe.digest if flights.enabled else ""
        # Keyed by replica: fabrics share one DbManager, and replica A's
        # staging flight must never be joined by an invocation running
        # on replica B (each replica stages over its own uplink).
        yield from flights.do(
            ("stage", onserve.replica, site, staged, digest), stage,
            group="staging")

    def _join_seed(self, site: str, staged: str, digest: str,
                   ctx: Optional[RequestContext] = None
                   ) -> Generator[Event, None, bool]:
        """Wait for a seed filling *site* with *digest*, if one is.

        A generator meant to be delegated to; ``True`` means the site
        holds the bytes now.  The seed may run on any replica: it is
        found through the store's marker and awaited on the store's
        feed, which wakes this waiter when the seed moves past *site*,
        ends or is dropped (cancelled, or its replica crashed) — then
        the store's row decides.  The seed's staging spans are taken
        into this request's trace: the wait was for that transfer.
        """
        onserve = self.onserve
        flight = onserve.store.seed_flight(staged)
        if (flight is None or flight["site"] != site
                or flight["digest"] != digest):
            return False
        moved = self.sim.event(f"seed-join:{staged}")
        onserve.store.watch_seed(staged, moved.succeed)
        onserve.bus.emit("core.seed_joined", layer="core",
                         request_id=ctx.request_id if ctx else None,
                         seed=flight["seed"], site=site,
                         replica=onserve.replica, origin=flight["replica"])
        with span(ctx, "service:seed-join", site=site) as wait:
            trace = yield moved
            if wait is not None and trace is not None \
                    and trace.meta.get("site") == site:
                trace.copy_to(wait)
        return onserve.is_staged(site, staged, digest)

    def _seed(self, origin: "OnServe", exe, sites: List[str],
              ctx: RequestContext) -> Generator[Event, None, None]:
        """Stage a republished executable where its predecessor was.

        Runs as a process the router hosts on this runtime's replica —
        the service's ring owner — and dies with it.  The payload comes
        over the LAN from *origin*, the replica that took the publish;
        the best-ranked of *sites* is staged through :meth:`_stage`
        (striped, as an invocation's cold stage is), and the rest are
        fed site to site from it.  The store's marker names the site
        being filled, so invocations on any replica wait for it instead
        of staging the bytes again.  A republish cancels the seed: one
        that finds the service row on other bytes never starts, one
        whose marker is gone stops at its next step — it sends no bytes
        up and records no copy after that — and evicts the row of the
        site it was filling.
        """
        onserve = self.onserve
        store = onserve.store
        service_name = service_name_for(exe.name)
        staged = staged_path_for(exe.name)
        host = onserve.host
        held = 0
        trace = None
        seed = None
        cancelled = False
        try:
            if origin is not onserve:
                yield origin.host.send(host, exe.size,
                                       label=f"seed:{staged}")
            host.allocate_memory(exe.size)
            held = exe.size
            listing = yield from onserve.agent_stub.listSites(ctx=ctx)
            states = onserve.breakers.states()
            ranked = [s for s in listing.split(",")
                      if s in sites and states.get(s) != OPEN]
            row = store.get_record(service_name)
            if row is None or row["digest"] != exe.digest:
                onserve.bus.emit("core.seed_cancelled", layer="core",
                                 service=service_name,
                                 replica=onserve.replica,
                                 reason="republished")
                return
            if not ranked:
                return
            seed = store.begin_seed(staged, exe.digest, ranked[0],
                                    onserve.replica)
            onserve.bus.emit("core.seed_started", layer="core",
                             service=service_name, seed=seed,
                             replica=onserve.replica, site=ranked[0],
                             sites=len(ranked), nbytes=exe.size)

            def landed(span_):
                # Told once the marker moved on: the seed still owned it.
                onserve.bus.emit("core.seed_landed", layer="core",
                                 seed=seed, site=span_.meta["site"],
                                 seconds=span_.duration)

            for site in ranked:
                if trace is not None:
                    cancelled = not store.seed_at(staged, seed, site, trace)
                    if cancelled:
                        break
                    landed(trace)
                with span(ctx, "service:seed", site=site) as trace:
                    yield from self._stage(site, staged, exe, ctx, seed=seed)
            else:
                cancelled = not store.end_seed(staged, seed, trace)
                if not cancelled:
                    landed(trace)
        except (Interrupt, ReproError) as exc:
            # Failed, or its replica crashed: the seed ends its own
            # marker, so its waiters stage for themselves.
            cause = exc.cause if isinstance(exc, Interrupt) else exc
            if cause is not exc and not isinstance(cause, ReplicaDown):
                raise
            if seed is not None:
                cancelled = not store.end_seed(staged, seed)
                if not cancelled:
                    onserve.bus.emit("core.seed_cancelled", layer="core",
                                     service=service_name, seed=seed,
                                     replica=onserve.replica,
                                     reason=root_cause_name(cause))
        finally:
            if held:
                host.release_memory(held)
        if cancelled:
            # A republish cancelled the seed and evicted every row of the
            # path.  A copy the seed commanded at the site it was filling
            # before it knew may still land there — over the new bytes,
            # if commanded after them — so that site's row goes too,
            # whatever it says: its next invocation stages afresh.
            store.evict_staged(staged, site=trace.meta["site"])

    def _upload(self, site: str, staged: str, exe,
                ctx: Optional[RequestContext] = None
                ) -> Generator[Event, None, None]:
        """Move *exe*'s bytes to *site* — over as many uplinks as help.

        A generator meant to be delegated to.  One thin uplink is the
        paper's bottleneck (§VIII.D) and a fabric owns one per replica,
        mostly idle: under ``config.stage_once`` a payload is cut into
        up to ``size // STRIPE_MIN_BYTES`` ranges — zero-copy views —
        and all but the first are handed to peer replicas
        (:meth:`_carry`), each PUT over its peer's own uplink; the site
        shows the file once the ranges cover it.  A range whose peer
        crashed, refused or failed is sent from here, under the retry
        policy like the first.  No peers or a small payload is the
        whole file in one PUT: the single appliance's only case.  A PUT
        the site refused because newer bytes were commanded at the path
        (:class:`~repro.errors.TransferSuperseded`) fails the stage: no
        range of it is sent again.
        """
        onserve = self.onserve
        router = onserve.router

        def put(data, **where):
            def upload_try():
                session = yield from self.session_cache.get(ctx)
                return (yield from _put(onserve, session, site, staged,
                                        data, ctx, **where))

            return retry_call(self.sim, onserve.retry_policy, upload_try,
                              ctx=ctx, label=f"upload:{site}",
                              classify=lambda exc: (is_retryable(exc)
                                                    and not _superseded(exc)),
                              on_retry=self._recover_session)

        k = exe.size // self.STRIPE_MIN_BYTES
        peers = (router.peers(onserve.replica)[:k - 1]
                 if k > 1 and router is not None
                 and onserve.config.stage_once else [])
        if not peers:
            yield from put(exe.payload)
            return
        k = 1 + len(peers)
        view = memoryview(exe.payload)
        step = exe.size // k
        ranges = [(view[i * step:(i + 1) * step if i < k - 1 else exe.size],
                   dict(offset=i * step, total=exe.size,
                        transfer=exe.digest)) for i in range(k)]
        carried = [router.run_on(
            peer.name,
            self._carry(peer, site, staged, data, where,
                        ctx.fork() if ctx is not None else None),
            f"stripe:{peer.name}:{staged}")
            for peer, (data, where) in zip(peers, ranges[1:])]
        yield from put(ranges[0][0], **ranges[0][1])
        for landed, (data, where) in zip(carried, ranges[1:]):
            failed = yield landed
            if failed is None:
                continue
            if _superseded(failed):
                raise failed
            yield from put(data, **where)

    def _carry(self, peer, site: str, staged: str, data, where: dict,
               ctx: Optional[RequestContext] = None
               ) -> Generator[Event, None, Optional[BaseException]]:
        """One range of a striped stage on *peer*'s uplink.

        Runs as a process the router hosts on *peer* (it dies with it):
        the range crosses the LAN, then goes out through the peer's own
        agent session and pooled GridFTP channel.  ``None`` means the
        range landed; otherwise the error that failed it — the peer is
        down, was killed under the range, or the transfer failed — is
        returned, not raised, and the leader sends the range itself
        (its own attempt will meet and classify whatever failed it),
        unless the site refused the range as superseded.
        """
        helper = peer.onserve
        session = None
        try:
            if peer.crashed:
                raise ReplicaDown(f"connection refused by {peer.name!r}")
            with span(ctx, "service:stripe", replica=peer.name,
                      bytes=len(data)):
                yield self.onserve.host.send(helper.host, len(data),
                                             label=f"stripe:{staged}")
                helper.host.allocate_memory(len(data))
                try:
                    session = yield from helper.session_cache.get(ctx)
                    yield from _put(helper, session, site, staged, data,
                                    ctx, **where)
                finally:
                    helper.host.release_memory(len(data))
        except (Interrupt, ReproError) as exc:
            if isinstance(exc, Interrupt):
                exc = exc.cause
                if not isinstance(exc, ReplicaDown):
                    raise
            if root_cause_name(exc) in _DEAD_CREDENTIAL:
                helper.session_cache.drop(session)
            self.onserve.bus.emit(
                "core.stripe_failed", layer="core",
                request_id=ctx.request_id if ctx else None,
                replica=peer.name, site=site, error=root_cause_name(exc))
            return exc
        return None

    def _replicate(self, site: str, staged: str, digest: str,
                   ctx: Optional[RequestContext] = None
                   ) -> Generator[Event, None, bool]:
        """Feed *site* from a site that already holds *digest*.

        A generator meant to be delegated to; ``True`` means *site* now
        holds the bytes and is recorded so.  The copy runs head node to
        head node (GridFTP third-party mode) instead of a second trip
        over the appliance uplink.  ``False`` — no holder with a closed
        breaker, a transient failure of the copy, or a source row that
        no longer says *digest* once the copy is done (a republish
        raced it: what landed may be the new bytes) — leaves the caller
        to upload the bytes it loaded, as if this had not been tried.
        """
        onserve = self.onserve
        source = onserve.replication_source(site, staged, digest)
        if source is None:
            return False
        try:
            session = yield from self.session_cache.get(ctx)
            yield from onserve.agent_stub.replicateExecutable(
                session=session, fromSite=source, toSite=site, path=staged,
                ctx=ctx)
        except ReproError as exc:
            if not is_retryable(exc):
                raise
            self._recover_session(exc, 0)
            return False
        if not onserve.is_staged(source, staged, digest):
            return False
        onserve.mark_staged(site, staged, digest)
        return True

    def _drop_if_unstaged(self, site: str, staged: str,
                          ctx: Optional[RequestContext] = None
                          ) -> Generator[Event, None, None]:
        """A job failed on a copy this invocation did not stage itself.

        The agent reports no job status, let alone the LRM's ``not
        staged`` reason, so ask the site's filesystem (the existence
        probe that already stands in for status): if the file is gone
        the ``(site, path)`` row is stale — drop exactly that row, so
        the next invocation re-stages instead of failing over for ever.
        A probe that fails leaves the row alone: the job's own failure
        is what the caller reports.
        """
        try:
            present = yield from self.onserve.agent_stub.outputReady(
                session=self.session_cache.session, site=site, path=staged,
                ctx=ctx)
        except ReproError:
            return
        if not present:
            self.onserve.store.evict_staged(staged, site=site)

    def _recover_session(self, exc: BaseException, attempt: int) -> None:
        """Retry hook: a dead credential means re-authenticate, not just
        repeat — drop the cached session so the next attempt logs on."""
        if root_cause_name(exc) in _DEAD_CREDENTIAL:
            self.session_cache.drop(self.session_cache.session)

    def _choose_site(self, sites: List[str]) -> str:
        """Apply the configured site-selection policy.

        The agent's listing is already MDS-ranked (most free cores
        first), so "best" is simply the head of the list.  Sites whose
        circuit breaker is open are skipped; when *every* candidate's
        circuit is open the invocation fails fast rather than queue up
        behind a grid that is known to be broken.
        """
        sites = [s for s in sites if s]
        if not sites:
            raise InvocationError("no grid site available")
        allowed = [s for s in sites
                   if self.onserve.breakers.allow(s)]
        if not allowed:
            raise InvocationError(
                f"no grid site available (circuit open for "
                f"{len(sites)} candidate(s))")
        sites = allowed
        policy = self.onserve.config.site_policy
        if policy == "round_robin":
            # Rotate over a *stable* ordering, not the load-ranked one.
            ordered = sorted(sites)
            site = ordered[self._rr_cursor % len(ordered)]
            self._rr_cursor += 1
            return site
        return sites[0]

    def _await_output(self, session: str, site: str, spec: CyberaideJobSpec,
                      tag: str, job_id: str, report: InvocationReport,
                      ctx: Optional[RequestContext] = None
                      ) -> Generator[Event, None, bytes]:
        """Completion detection down the site's fallback ladder.

        One detector per site — the status ablation, else notify where
        the site pushes, else the paper's per-job tentative poll —
        reports ``(state, polls)``; the shared tail classifies the state
        and fetches the final output — unless the push already carried
        it: a ``done`` job's output of at most
        ``GramGatekeeper.INLINE_OUTPUT_BYTES``, delivered live (a
        replayed subscription carries none).
        """
        cfg = self.onserve.config
        host = self.onserve.host
        stub = self.onserve.agent_stub
        queue = self.onserve.notify_queue
        pushed = False
        output = None

        if cfg.status_supported:
            # Ablation: clean status polling, output fetched exactly once.
            state, polls = yield from poll_until(
                self.sim,
                poll_factory=lambda: stub.jobStatus(
                    session=session, site=site, jobId=job_id, ctx=ctx),
                accept=lambda s: s in ("done", "failed", "canceled"),
                interval=cfg.poll_interval,
                timeout=cfg.watchdog_timeout)
        elif queue is not None and queue.site_capable(site):
            # Push path (the ladder's top rung): the site's gatekeeper
            # publishes the terminal state onto the notify queue and
            # this waiter parks on the subscription — zero poller
            # exchanges, detection lag = one propagation delay.
            pushed = True
            with span(ctx, "notify:await", site=site, job=job_id):
                note = yield from await_waiter(
                    self.sim, lambda: queue.subscribe(site, job_id),
                    lambda waiter: queue.unsubscribe(job_id, waiter),
                    cfg.watchdog_timeout, f"notification for {job_id!r}")
            state, polls = ("lost" if note["error"] else note["state"]), 0
            output = note["output"]
        else:
            # Faithful workaround: tentatively fetch output every
            # interval, writing each (partial) result to local disk,
            # until the stdout file exists on the grid.
            stdout_path = spec.stdout_path(tag)

            def poll() -> Generator[Event, None, bool]:
                data = yield from stub.fetchOutput(
                    session=session, site=site, jobId=job_id, ctx=ctx)
                if data:
                    # "the output of the running job is written to the
                    # hard disk" — every poll, the periodic write peaks.
                    yield host.disk_write(len(data))
                return (yield from stub.outputReady(
                    session=session, site=site, path=stdout_path, ctx=ctx))

            _ready, polls = yield from poll_until(
                self.sim,
                poll_factory=poll,
                accept=lambda ready: bool(ready),
                interval=cfg.poll_interval,
                timeout=cfg.watchdog_timeout)
            state = "done"

        report.polls += polls
        # Observational marker (no sim events): correlated with the
        # scheduler's ``sched.finish`` it yields the detection lag the
        # notify ablation reports.
        self.onserve.bus.emit(
            "core.output_detected", layer="core",
            request_id=ctx.request_id if ctx else None,
            service=self.record.name, site=site, job_id=job_id,
            polls=polls, pushed=pushed)
        if state == "lost":
            # The gatekeeper lost the job record and said so — same
            # classification as a raised lookup, so failover applies.
            raise JobNotFound(
                f"gatekeeper has no record of job {job_id!r}")
        if state != "done":
            # A JobError (retryable): a crash-killed job may well
            # succeed when resubmitted on another site.
            raise JobError(f"grid job {job_id} ended {state}")
        if output is None:
            # Whatever a tentative poll fetched may predate completion.
            output = yield from stub.fetchOutput(session=session, site=site,
                                                 jobId=job_id, ctx=ctx)
        yield host.disk_write(len(output))
        if output and set(output) == {0}:
            raise JobError(
                f"grid job {job_id} produced no final output "
                f"(failed on the grid?)")
        return output


def _put(onserve: "OnServe", session: str, site: str, path: str, data,
         ctx: Optional[RequestContext] = None, **where):
    """The one call that sends executable bytes to a site, through
    *onserve*'s agent: the whole file, or — *where* = its ``offset``,
    the file's ``total`` and the ``transfer`` id — one range of it.
    A generator the caller drives with ``yield from``: the call runs in
    the caller's process, and an interrupt of that process unwinds it."""
    stub = onserve.agent_stub
    send = stub.uploadRange if where else stub.uploadExecutable
    return send(session=session, site=site, path=path, data=data, ctx=ctx,
                **where)


def _superseded(exc: BaseException) -> bool:
    """The site refused a PUT because newer bytes were commanded at its
    path since: the transfer's other ranges went with that command, so
    sending this one again cannot land the file — only a fresh stage
    (failover) can."""
    return root_cause_name(exc) == TransferSuperseded.__name__


def _argument(value: Any) -> str:
    """SOAP value -> RSL argument string."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, bytes):
        raise InvocationError("binary parameters cannot become RSL arguments")
    return str(value)
