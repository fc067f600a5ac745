"""NotifyQueue: durable state rows, delivery timing, replay, waiters."""

import pytest

from repro.core.watchdog import await_waiter
from repro.db.engine import Database
from repro.errors import WatchdogTimeout
from repro.grid.notify import (
    JOB_STATES_TABLE, NOTIFY_QUEUE_TABLE, NotifyQueue,
)
from repro.simkernel import Simulator
from repro.telemetry.events import bus
from repro.telemetry.gauges import gauges


def make_queue(sim, propagation=0.5):
    return NotifyQueue(sim, Database(), propagation=propagation)


def test_publish_delivers_after_one_propagation_delay():
    sim = Simulator()
    queue = make_queue(sim, propagation=0.5)

    def flow():
        yield sim.timeout(3.0)
        queue.publish("ncsa", "ncsa-job-00001", "done", terminal=True)

    sim.run(until=sim.process(flow()))
    sim.run()  # drain the delivery timeout
    assert queue.published == 1 and queue.delivered == 1
    assert queue.depth == 0
    deliver = bus(sim).first("notify.deliver", job_id="ncsa-job-00001")
    assert deliver.ts == pytest.approx(3.5)
    assert deliver.fields["lag"] == pytest.approx(0.5)
    # The durable queue row records both timestamps.
    row, = queue.db.select(NOTIFY_QUEUE_TABLE, lambda r: r["seq"] == 1)
    assert row["published_at"] == pytest.approx(3.0)
    assert row["delivered_at"] == pytest.approx(3.5)
    assert gauges(sim).gauge("notify.queue.depth").current == 0


def test_state_row_written_in_the_publish_frame():
    sim = Simulator()
    queue = make_queue(sim)

    def flow():
        queue.publish("ncsa", "ncsa-job-00001", "pending")
        # Same frame: the durable row already says so, pre-delivery.
        row = queue.job_state("ncsa-job-00001")
        assert row["state"] == "pending" and not row["terminal"]
        yield sim.timeout(4.0)
        queue.publish("ncsa", "ncsa-job-00001", "done", terminal=True)
        row = queue.job_state("ncsa-job-00001")
        assert row["state"] == "done" and row["terminal"]

    sim.run(until=sim.process(flow()))
    # Upsert, not append: one job_states row per job.
    rows = queue.db.select(JOB_STATES_TABLE, lambda r: True)
    assert len(rows) == 1
    assert rows[0]["updated_at"] == pytest.approx(4.0)


def test_subscriber_before_publish_gets_terminal_payload():
    sim = Simulator()
    queue = make_queue(sim, propagation=0.5)
    got = {}

    def subscriber():
        payload = yield queue.subscribe("ncsa", "ncsa-job-00001")
        got.update(payload, at=sim.now)

    def publisher():
        yield sim.timeout(2.0)
        queue.publish("ncsa", "ncsa-job-00001", "active")
        yield sim.timeout(8.0)
        queue.publish("ncsa", "ncsa-job-00001", "done", terminal=True)

    sim.process(publisher(), name="pub")
    sim.run(until=sim.process(subscriber(), name="sub"))
    # Only the terminal message fires the waiter, one delay after it.
    assert got["at"] == pytest.approx(10.5)
    assert got["state"] == "done" and not got["error"]
    assert got["delivered_at"] == pytest.approx(10.5)


def test_late_subscriber_replays_from_durable_table():
    sim = Simulator()
    queue = make_queue(sim)
    got = {}

    def flow():
        queue.publish("ncsa", "ncsa-job-00001", "done", terminal=True)
        yield sim.timeout(30.0)  # delivery long past
        payload = yield queue.subscribe("ncsa", "ncsa-job-00001")
        got.update(payload, at=sim.now)

    sim.run(until=sim.process(flow()))
    # Completed straight from the table — no extra delivery wait.
    assert got["at"] == pytest.approx(30.0)
    assert got["state"] == "done"
    assert queue.replayed == 1
    assert bus(sim).first("notify.replay", job_id="ncsa-job-00001")


def test_replay_of_lost_job_carries_the_error_flag():
    sim = Simulator()
    queue = make_queue(sim)
    got = {}

    def flow():
        queue.publish("ncsa", "ncsa-job-00001", "lost",
                      terminal=True, error=True)
        yield sim.timeout(5.0)
        payload = yield queue.subscribe("ncsa", "ncsa-job-00001")
        got.update(payload)

    sim.run(until=sim.process(flow()))
    assert got["state"] == "lost" and got["error"]


def test_unsubscribe_is_idempotent_and_detaches_the_waiter():
    sim = Simulator()
    queue = make_queue(sim)

    def flow():
        waiter = queue.subscribe("ncsa", "ncsa-job-00001")
        queue.unsubscribe("ncsa-job-00001", waiter)
        queue.unsubscribe("ncsa-job-00001", waiter)  # idempotent
        queue.unsubscribe("never-seen", waiter)      # unknown key too
        queue.publish("ncsa", "ncsa-job-00001", "done", terminal=True)
        yield sim.timeout(2.0)
        assert not waiter.triggered  # detached: delivery skipped it

    sim.run(until=sim.process(flow()))


def test_capability_registry():
    sim = Simulator()
    queue = make_queue(sim)
    assert not queue.site_capable("ncsa")
    queue.attach_site("ncsa")
    queue.attach_site("anl")
    assert queue.site_capable("ncsa") and not queue.site_capable("sdsc")
    assert queue.capable_sites == ["anl", "ncsa"]


def test_attached_idle_queue_schedules_nothing():
    sim = Simulator()
    queue = make_queue(sim)
    queue.attach_site("ncsa")
    assert sim.run() is None  # heap empty: zero events created
    assert sim.now == 0.0
    assert queue.db.select(JOB_STATES_TABLE, lambda r: True) == []
    assert queue.db.select(NOTIFY_QUEUE_TABLE, lambda r: True) == []
    assert bus(sim).events() == []


def test_validation_rejects_nonpositive_propagation():
    sim = Simulator()
    with pytest.raises(ValueError):
        NotifyQueue(sim, Database(), propagation=0.0)


# --------------------------------------------- await_waiter on the queue

def await_notification(sim, queue, site, job_id, timeout):
    """await_waiter wired to the queue the way ``_await_output`` does."""
    return await_waiter(sim, lambda: queue.subscribe(site, job_id),
                        lambda waiter: queue.unsubscribe(job_id, waiter),
                        timeout, f"notification for {job_id!r}")


def test_await_notification_returns_payload():
    sim = Simulator()
    queue = make_queue(sim, propagation=0.5)

    def publisher():
        yield sim.timeout(4.0)
        queue.publish("ncsa", "ncsa-job-00001", "done", terminal=True)

    def flow():
        note = yield await_notification(sim, queue, "ncsa",
                                        "ncsa-job-00001", timeout=60.0)
        return note, sim.now

    sim.process(publisher(), name="pub")
    note, at = sim.run(until=sim.process(flow(), name="flow"))
    assert note["state"] == "done" and not note["error"]
    assert at == pytest.approx(4.5)


def test_await_notification_timeout_detaches_then_fresh_waiter_wins():
    sim = Simulator()
    queue = make_queue(sim, propagation=0.5)
    history = []

    def flow():
        try:
            yield await_notification(sim, queue, "ncsa",
                                     "ncsa-job-00001", timeout=2.0)
        except WatchdogTimeout:
            history.append(("timeout", sim.now))
        # Re-subscribe the same job: the fresh waiter must get the
        # payload even though an abandoned one timed out earlier.
        note = yield await_notification(sim, queue, "ncsa",
                                        "ncsa-job-00001", timeout=60.0)
        history.append(("done", sim.now, note["state"]))

    def publisher():
        yield sim.timeout(6.0)
        queue.publish("ncsa", "ncsa-job-00001", "done", terminal=True)

    sim.process(publisher(), name="pub")
    sim.run(until=sim.process(flow(), name="flow"))
    assert history == [("timeout", 2.0), ("done", 6.5, "done")]
    # The abandoned waiter left no parked subscription behind.
    assert queue._waiters == {}


def test_await_notification_rejects_bad_timeout():
    sim = Simulator()
    queue = make_queue(sim)
    with pytest.raises(ValueError):
        await_notification(sim, queue, "ncsa", "j", timeout=0.0)


# -- gatekeeper attachment ------------------------------------------------


def test_reattaching_a_queue_replaces_the_sched_start_mirror():
    """Regression: a second ``attach_notify`` left the first queue's
    ``sched.start`` mirror subscribed, so the detached queue kept
    upserting ``job_states`` rows beside the attached one."""
    from repro.grid.testbed import build_testbed

    sim = Simulator()
    tb = build_testbed(sim=sim, n_sites=1, nodes_per_site=1)
    db = Database()
    first = NotifyQueue(sim, db)
    second = NotifyQueue(sim, db)
    gatekeeper = tb.gatekeepers["ncsa"]
    gatekeeper.attach_notify(first, capable=True)
    gatekeeper.attach_notify(second, capable=True)
    assert gatekeeper.notify_queue is second
    frames = []
    db.wal.taps.append(frames.append)
    bus(sim).emit("sched.start", layer="grid", job_id="ncsa-job-00001")
    # One job started: one ACTIVE upsert, one WAL frame.
    assert len(frames) == 1
    assert [dml[0] for dml in frames[0][2]] == ["insert"]
    assert second.job_state("ncsa-job-00001")["state"] == "active"
    # Downgrading to incapable detaches the mirror altogether.
    gatekeeper.attach_notify(second, capable=False)
    bus(sim).emit("sched.start", layer="grid", job_id="ncsa-job-00002")
    assert len(frames) == 1


# -- one unit per state transition ----------------------------------------


def test_publish_and_deliver_are_one_frame_each():
    sim = Simulator()
    queue = make_queue(sim)
    frames = []
    queue.db.wal.taps.append(frames.append)

    def tables():
        return [sorted({dml[1] for dml in f[2]}) for f in frames]

    queue.publish("ncsa", "j1", "pending")
    assert tables() == [[JOB_STATES_TABLE, NOTIFY_QUEUE_TABLE]]
    queue.record_state("ncsa", "j1", "active")
    queue.publish("ncsa", "j1", "done", terminal=True)
    sim.run()  # both deliveries land
    assert tables() == [[JOB_STATES_TABLE, NOTIFY_QUEUE_TABLE],
                        [JOB_STATES_TABLE],
                        [JOB_STATES_TABLE, NOTIFY_QUEUE_TABLE],
                        [NOTIFY_QUEUE_TABLE], [NOTIFY_QUEUE_TABLE]]
    # The job_states row is rewritten where it stands, never re-inserted.
    assert [dml[0] for f in frames for dml in f[2]
            if dml[1] == JOB_STATES_TABLE] == ["insert", "update", "update"]


def test_queue_over_recovered_database_resumes_numbering():
    sim = Simulator()
    queue = make_queue(sim)
    assert queue.publish("ncsa", "j1", "pending") == 1
    assert queue.publish("ncsa", "j1", "done", terminal=True) == 2
    # Crash: the appliance comes back over the recovered WAL image.
    recovered = Database.recover(queue.db.wal.snapshot())
    sim2 = Simulator()
    reborn = NotifyQueue(sim2, recovered, propagation=0.5)
    assert reborn.publish("ncsa", "j2", "done", terminal=True) == 3
    waiter = reborn.subscribe("ncsa", "j2")
    sim2.run()
    assert reborn.delivered == 1
    assert waiter.value["state"] == "done"
    assert recovered.get_by_pk(NOTIFY_QUEUE_TABLE, 3)["delivered_at"] \
        == pytest.approx(0.5)
    # History survived beside it, undelivered rows included.
    assert recovered.count(NOTIFY_QUEUE_TABLE) == 3
    assert reborn.job_state("j1")["state"] == "done"


def test_failing_queue_insert_rolls_the_state_row_back():
    from repro.errors import DatabaseError

    sim = Simulator()
    queue = make_queue(sim)
    queue.publish("ncsa", "j1", "pending")
    size, scheduled = queue.db.wal.size(), len(sim._heap)
    queue._seq = 0  # the next publish collides on seq 1
    with pytest.raises(DatabaseError, match="duplicate primary key"):
        queue.publish("ncsa", "j1", "done", terminal=True)
    # Neither row: the state table still says pending, nothing was
    # logged, counted or scheduled, and the sequence was not consumed.
    assert queue.job_state("j1")["state"] == "pending"
    assert queue.db.wal.size() == size
    assert queue.published == 1 and len(sim._heap) == scheduled
    assert queue.db.count(NOTIFY_QUEUE_TABLE) == 1
    assert queue._seq == 0
