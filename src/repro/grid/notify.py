"""NotifyQueue: the durable job-state event pipeline (push path).

ROADMAP item 1 — kill the poll loop.  The faithful §VIII.B story is
that job status "can't be retrieved" through the agent, so completion
detection is tentative polling.  This module models the fix the
modern stacks apply (cloudify-manager's amqp-postgres pipeline,
diracx-tasks): the gatekeeper *pushes* job-state-change events onto a
durable in-sim message queue, and a ``job_states`` table in the DB
tier becomes the source of truth for where every job is in its
lifecycle.

Durability discipline (PR 8's dedup rule): the ``job_states`` row and
the ``notify_queue`` row are written **in the same frame** as the state
change itself, as one transaction — one WAL frame, both rows or
neither — so a crash between "the job finished" and "the row says so"
cannot exist, and replaying a subscriber against the table after a
crash observes exactly what the live delivery would have shown.
Delivery then takes one propagation delay of simulated time (the
event's trip from the gatekeeper to the appliance), which is the whole
detection lag of the push path.

Capability is **per site** and heterogeneous: only gatekeepers
explicitly attached as capable publish here (TeraGrid realism — not
every site's GRAM deployment supports callbacks).  A site that does
not push falls back to the paper's per-job ``poll_until``.

Determinism contract (the golden guard proves it): a constructed queue
with *no* capable site never publishes, never schedules, and leaves
both tables empty — attaching it to a faithful run is byte-invisible.
Row writes are pure bookkeeping (no simulated cost; the same rule
``ServiceStateStore`` follows), so recording an intermediate state
from a telemetry-bus observer frame is legal; only ``publish`` — which
schedules the delivery timeout — needs a real process frame.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.db.engine import Database
from repro.db.sql import execute_sql
from repro.db.table import Column
from repro.simkernel.events import Event
from repro.simkernel.kernel import Simulator
from repro.telemetry.events import bus
from repro.telemetry.gauges import gauges

__all__ = ["NotifyQueue", "JOB_STATES_TABLE", "NOTIFY_QUEUE_TABLE"]

JOB_STATES_TABLE = "job_states"
NOTIFY_QUEUE_TABLE = "notify_queue"

_JOB_STATES_SCHEMA = [
    Column("job_id", "TEXT", primary_key=True),
    Column("site", "TEXT", nullable=False),
    Column("state", "TEXT", nullable=False),
    Column("updated_at", "REAL", nullable=False),
    Column("terminal", "INT", nullable=False),
]

_QUEUE_SCHEMA = [
    Column("seq", "INT", primary_key=True),
    Column("site", "TEXT", nullable=False),
    Column("job_id", "TEXT", nullable=False),
    Column("state", "TEXT", nullable=False),
    Column("terminal", "INT", nullable=False),
    Column("error", "INT", nullable=False),
    Column("published_at", "REAL", nullable=False),
    Column("delivered_at", "REAL"),
]


class NotifyQueue:
    """Durable job-state-change queue between GRAM and the appliance.

    ``publish`` appends a message and upserts the job's ``job_states``
    row as one unit in the caller's frame, then delivers it one
    *propagation* delay later; a terminal delivery fires every
    subscribed waiter with the message payload.  ``subscribe`` consults the table first: a
    subscriber arriving after the terminal row exists (crash replay,
    slow middleware) completes immediately from durable state instead
    of waiting for a delivery that already happened.

    A message may carry the job's *output* (a small one, on a ``done``
    job's terminal message).  It travels with the delivery only: neither
    table stores it, so a replayed subscription's payload has
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
        #: job_id -> waiter events parked until the terminal delivery.
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
        if NOTIFY_QUEUE_TABLE not in db.tables:
            db.create_table(NOTIFY_QUEUE_TABLE, _QUEUE_SCHEMA)
            db.create_index(NOTIFY_QUEUE_TABLE, "job_id", "hash")
        # Resume numbering past recovered history (``seq`` is the key).
        row = execute_sql(db, f"SELECT MAX(seq) FROM {NOTIFY_QUEUE_TABLE}")[0]
        self._seq = row["max(seq)"] or 0

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

    def record_state(self, site: str, job_id: str, state: str,
                     terminal: bool = False) -> None:
        """Upsert the ``job_states`` row (same frame, pure bookkeeping).

        Safe from any frame — including telemetry-bus observer
        callbacks — because it creates no simulation events.
        """
        self.db.upsert(JOB_STATES_TABLE, [
            job_id, site, state, self.sim.now, 1 if terminal else 0])

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
                terminal: bool = False, error: bool = False,
                output: Optional[bytes] = None) -> int:
        """Append one state-change message; returns its sequence number.

        The durable rows (state table + queue) are written in the
        calling frame; delivery to subscribers happens one propagation
        delay later.  Must run from a frame that may create simulation
        events (it schedules the delivery timeout).
        """
        seq = self._seq + 1
        with self.db.transaction():  # one unit: both rows or neither
            self.record_state(site, job_id, state, terminal)
            self.db.insert(NOTIFY_QUEUE_TABLE, [
                seq, site, job_id, state, 1 if terminal else 0,
                1 if error else 0, self.sim.now, None])
        self._seq = seq
        self.published += 1
        self._depth_gauge.adjust(+1)
        self._bus.emit("notify.publish", layer="grid", site=site,
                       job_id=job_id, state=state, seq=seq,
                       terminal=terminal)
        message = {"seq": seq, "site": site, "job_id": job_id,
                   "state": state, "terminal": terminal, "error": error,
                   "published_at": self.sim.now, "output": output}
        trip = self.sim.timeout(self.propagation,
                                name=f"notify-deliver:{seq}")
        trip.add_callback(lambda ev: self._deliver(message))
        return seq

    def _deliver(self, message: Dict[str, Any]) -> None:
        seq = message["seq"]
        self.db.update_eq(NOTIFY_QUEUE_TABLE, "seq", seq,
                          {"delivered_at": self.sim.now})
        self.delivered += 1
        self._depth_gauge.adjust(-1)
        self._bus.emit("notify.deliver", layer="grid",
                       site=message["site"], job_id=message["job_id"],
                       state=message["state"], seq=seq,
                       lag=self.sim.now - message["published_at"])
        if not message["terminal"]:
            return
        payload = {"state": message["state"], "error": message["error"],
                   "published_at": message["published_at"],
                   "delivered_at": self.sim.now,
                   "output": message["output"]}
        for waiter in self._waiters.pop(message["job_id"], []):
            waiter.succeed(payload)

    # -- subscribe ------------------------------------------------------------

    def subscribe(self, site: str, job_id: str) -> Event:
        """An event that fires with the terminal payload for *job_id*.

        If the durable table already holds a terminal row — the
        subscriber arrived after the fact (crash replay) — the event
        completes immediately from that row; otherwise it parks until
        the terminal delivery.
        """
        waiter = self.sim.event(f"notify:{job_id}")
        row = self.job_state(job_id)
        if row is not None and row["terminal"]:
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
