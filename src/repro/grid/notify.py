"""NotifyQueue: the job-state push path.

ROADMAP item 1 — kill the poll loop.  The faithful §VIII.B story is
that job status "can't be retrieved" through the agent, so completion
detection is tentative polling.  This module models the fix the
modern stacks apply (cloudify-manager's amqp-postgres pipeline,
diracx-tasks): the gatekeeper *pushes* each job's terminal state to the
appliance, and a ``job_states`` table in the DB tier holds it durably.

One row and one message per job.  Durability discipline (PR 8's dedup
rule): the ``job_states`` row is written **in the same frame** as the
state change itself — one upsert, one WAL frame — so a crash between
"the job finished" and "the row says so" cannot exist, and a subscriber
replaying against the table after a crash observes exactly what the
live delivery would have shown.  Delivery then takes one propagation
delay of simulated time (the message's trip from the gatekeeper to the
appliance), which is the whole detection lag of the push path, and
writes nothing.

Capability is **per site** and heterogeneous: only gatekeepers
explicitly attached as capable publish here (TeraGrid realism — not
every site's GRAM deployment supports callbacks).  A site that does
not push falls back to the paper's per-job ``poll_until``.

Determinism contract (the golden guard proves it): a constructed queue
with *no* capable site never publishes, never schedules, and leaves
``job_states`` empty — attaching it to a faithful run is byte-invisible.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.db.engine import Database
from repro.db.table import Column
from repro.simkernel.events import Event
from repro.simkernel.kernel import Simulator
from repro.telemetry.events import bus
from repro.telemetry.gauges import gauges

__all__ = ["NotifyQueue", "JOB_STATES_TABLE"]

JOB_STATES_TABLE = "job_states"

_JOB_STATES_SCHEMA = [
    Column("job_id", "TEXT", primary_key=True),
    Column("site", "TEXT", nullable=False),
    Column("state", "TEXT", nullable=False),
    Column("updated_at", "REAL", nullable=False),
]


class NotifyQueue:
    """Terminal job-state notifications between GRAM and the appliance.

    ``publish`` writes the job's ``job_states`` row in the caller's
    frame, then delivers the message one *propagation* delay later,
    firing every subscribed waiter with its payload.  Only terminal
    states are published, so a row that exists is terminal:
    ``subscribe`` consults the table first, and a subscriber arriving
    after the row exists (crash replay, slow middleware) completes
    immediately from durable state instead of waiting for a delivery
    that already happened.

    A message may carry the job's *output* (a small one, on a ``done``
    job's message).  It travels with the delivery only: the table does
    not store it, so a replayed subscription's payload has
    ``output=None`` and its subscriber fetches the output as before.
    """

    def __init__(self, sim: Simulator, db: Database,
                 propagation: float = 0.5, read_router: Optional[Any] = None):
        if propagation <= 0:
            raise ValueError("notify propagation delay must be positive")
        self.sim = sim
        self.db = db
        #: Optional :class:`~repro.db.replica.ReadRouter`: replay reads
        #: (``job_state``) may be served by a caught-up replica; all
        #: durable writes stay on the primary.
        self.read_router = read_router
        self.propagation = propagation
        #: Sites whose gatekeeper publishes here (capability registry).
        self._capable: set = set()
        #: job_id -> waiter events parked until the delivery.
        self._waiters: Dict[str, List[Event]] = {}
        self.published = 0
        self.delivered = 0
        #: Subscriptions satisfied straight from the durable table.
        self.replayed = 0
        self._bus = bus(sim)
        self._depth_gauge = gauges(sim).gauge("notify.queue.depth",
                                              unit="msgs")
        if JOB_STATES_TABLE not in db.tables:
            db.create_table(JOB_STATES_TABLE, _JOB_STATES_SCHEMA)

    # -- capability registry --------------------------------------------------

    def attach_site(self, site: str) -> None:
        """Mark *site*'s gatekeeper as notification-capable."""
        self._capable.add(site)

    def site_capable(self, site: str) -> bool:
        return site in self._capable

    @property
    def capable_sites(self) -> List[str]:
        return sorted(self._capable)

    # -- durable state --------------------------------------------------------

    def job_state(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The durable ``job_states`` row for *job_id* (or ``None``)."""
        db = self.db
        if self.read_router is not None:
            db = self.read_router.reader(JOB_STATES_TABLE)
        rows = db.find_eq(JOB_STATES_TABLE, "job_id", job_id)
        return rows[0] if rows else None

    @property
    def depth(self) -> int:
        """Messages published but not yet delivered."""
        return self.published - self.delivered

    # -- publish / deliver ----------------------------------------------------

    def publish(self, site: str, job_id: str, state: str,
                error: bool = False, output: Optional[bytes] = None) -> int:
        """Publish *job_id*'s terminal *state*; returns its sequence number.

        The ``job_states`` row is written in the calling frame; delivery
        to subscribers happens one propagation delay later.  Must run
        from a frame that may create simulation events (it schedules the
        delivery timeout).
        """
        self.db.upsert(JOB_STATES_TABLE, [job_id, site, state, self.sim.now])
        self.published += 1
        seq = self.published
        self._depth_gauge.adjust(+1)
        self._bus.emit("notify.publish", layer="grid", site=site,
                       job_id=job_id, state=state, seq=seq)
        payload = {"state": state, "error": error,
                   "published_at": self.sim.now, "output": output}
        trip = self.sim.timeout(self.propagation,
                                name=f"notify-deliver:{seq}")
        trip.add_callback(
            lambda ev: self._deliver(seq, site, job_id, payload))
        return seq

    def _deliver(self, seq: int, site: str, job_id: str,
                 payload: Dict[str, Any]) -> None:
        self.delivered += 1
        self._depth_gauge.adjust(-1)
        payload["delivered_at"] = self.sim.now
        self._bus.emit("notify.deliver", layer="grid", site=site,
                       job_id=job_id, state=payload["state"], seq=seq,
                       lag=self.sim.now - payload["published_at"])
        for waiter in self._waiters.pop(job_id, []):
            waiter.succeed(payload)

    # -- subscribe ------------------------------------------------------------

    def subscribe(self, site: str, job_id: str) -> Event:
        """An event that fires with the terminal payload for *job_id*.

        If the durable table already holds the job's row — the
        subscriber arrived after the fact (crash replay) — the event
        completes immediately from that row; otherwise it parks until
        the delivery.
        """
        waiter = self.sim.event(f"notify:{job_id}")
        row = self.job_state(job_id)
        if row is not None:
            self.replayed += 1
            self._bus.emit("notify.replay", layer="grid", site=site,
                           job_id=job_id, state=row["state"])
            waiter.succeed({"state": row["state"],
                            "error": row["state"] == "lost",
                            "published_at": row["updated_at"],
                            "delivered_at": self.sim.now, "output": None})
            return waiter
        self._waiters.setdefault(job_id, []).append(waiter)
        self._bus.emit("notify.subscribe", layer="grid", site=site,
                       job_id=job_id)
        return waiter

    def unsubscribe(self, job_id: str, waiter: Event) -> None:
        """Detach an abandoned waiter (idempotent)."""
        waiters = self._waiters.get(job_id)
        if waiters is None:
            return
        try:
            waiters.remove(waiter)
        except ValueError:
            return
        if not waiters:
            del self._waiters[job_id]

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (f"<NotifyQueue capable={self.capable_sites} "
                f"depth={self.depth} published={self.published}>")
