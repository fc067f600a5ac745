"""NotifyQueue: durable state rows, delivery timing, replay, waiters."""

import pytest

from repro.core.watchdog import await_waiter
from repro.db.engine import Database
from repro.errors import WatchdogTimeout
from repro.grid.notify import JOB_STATES_TABLE, NotifyQueue
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
        queue.publish("ncsa", "ncsa-job-00001", "done")

    sim.run(until=sim.process(flow()))
    sim.run()  # drain the delivery timeout
    assert queue.published == 1 and queue.delivered == 1
    assert queue.depth == 0
    deliver = bus(sim).first("notify.deliver", job_id="ncsa-job-00001")
    assert deliver.ts == pytest.approx(3.5)
    assert deliver.fields["lag"] == pytest.approx(0.5)
    # The durable row keeps the publish time; the delivery wrote nothing.
    row = queue.job_state("ncsa-job-00001")
    assert row["state"] == "done"
    assert row["updated_at"] == pytest.approx(3.0)
    assert gauges(sim).gauge("notify.queue.depth").current == 0


def test_state_row_written_in_the_publish_frame():
    sim = Simulator()
    queue = make_queue(sim)

    def flow():
        yield sim.timeout(4.0)
        queue.publish("ncsa", "ncsa-job-00001", "done")
        # Same frame: the durable row already says so, pre-delivery.
        row = queue.job_state("ncsa-job-00001")
        assert row["state"] == "done" and queue.delivered == 0

    sim.run(until=sim.process(flow()))
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
        queue.publish("ncsa", "ncsa-job-00002", "done")  # another job's
        yield sim.timeout(8.0)
        queue.publish("ncsa", "ncsa-job-00001", "done")

    sim.process(publisher(), name="pub")
    sim.run(until=sim.process(subscriber(), name="sub"))
    # Only the job's own message fires the waiter, one delay after it.
    assert got["at"] == pytest.approx(10.5)
    assert got["state"] == "done" and not got["error"]
    assert got["delivered_at"] == pytest.approx(10.5)


def test_late_subscriber_replays_from_durable_table():
    sim = Simulator()
    queue = make_queue(sim)
    got = {}

    def flow():
        queue.publish("ncsa", "ncsa-job-00001", "done")
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
        queue.publish("ncsa", "ncsa-job-00001", "lost", error=True)
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
        queue.publish("ncsa", "ncsa-job-00001", "done")
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
        queue.publish("ncsa", "ncsa-job-00001", "done")

    def flow():
        note = yield from await_notification(sim, queue, "ncsa",
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
            yield from await_notification(sim, queue, "ncsa",
                                          "ncsa-job-00001", timeout=2.0)
        except WatchdogTimeout:
            history.append(("timeout", sim.now))
        # Re-subscribe the same job: the fresh waiter must get the
        # payload even though an abandoned one timed out earlier.
        note = yield from await_notification(sim, queue, "ncsa",
                                             "ncsa-job-00001", timeout=60.0)
        history.append(("done", sim.now, note["state"]))

    def publisher():
        yield sim.timeout(6.0)
        queue.publish("ncsa", "ncsa-job-00001", "done")

    sim.process(publisher(), name="pub")
    sim.run(until=sim.process(flow(), name="flow"))
    assert history == [("timeout", 2.0), ("done", 6.5, "done")]
    # The abandoned waiter left no parked subscription behind.
    assert queue._waiters == {}


def test_await_notification_rejects_bad_timeout():
    sim = Simulator()
    queue = make_queue(sim)
    with pytest.raises(ValueError):
        sim.run(until=sim.process(
            await_notification(sim, queue, "ncsa", "j", timeout=0.0)))


# -- gatekeeper attachment ------------------------------------------------


def submit_one(tb, gatekeeper, path):
    """Submit one short echo job through *gatekeeper*; its id, once the
    job has finished."""
    from repro.grid.rsl import JobDescription, generate_rsl
    from repro.workloads import make_payload

    client = tb.appliance_host

    def flow():
        _key, proxy, ee = yield tb.myproxy.logon(client, "ada", "pw",
                                                 lifetime=3600.0)
        chain = [proxy, ee]
        yield from tb.ftp(gatekeeper.site.name).put(
            client, chain, path, make_payload("echo", runtime="1"))
        job_id = yield from gatekeeper.submit(client, chain, generate_rsl(
            JobDescription(executable=path, arguments=["hi"],
                           stdout=path + ".out")))
        yield gatekeeper.completion_event(job_id)
        return job_id

    return tb.sim.run(until=tb.sim.process(flow()))


def test_reattaching_a_queue_sends_later_publishes_to_it_only():
    """Attaching is an assignment: a job submitted after a second
    ``attach_notify`` publishes to the second queue alone, and an
    incapable attachment publishes nothing."""
    from repro.grid.testbed import build_testbed

    sim = Simulator()
    tb = build_testbed(sim=sim, n_sites=1, nodes_per_site=1)
    tb.new_grid_identity("ada", "pw")
    first, second = NotifyQueue(sim, Database()), NotifyQueue(sim, Database())
    gatekeeper = tb.gatekeepers["ncsa"]
    gatekeeper.attach_notify(first, capable=True)
    gatekeeper.attach_notify(second, capable=True)
    assert gatekeeper.notify_queue is second
    job = submit_one(tb, gatekeeper, "/x/a.sh")
    sim.run()  # the delivery lands
    assert (first.published, second.published) == (0, 1)
    assert first.job_state(job) is None
    assert second.job_state(job)["state"] == "done"
    gatekeeper.attach_notify(second, capable=False)
    job = submit_one(tb, gatekeeper, "/x/b.sh")
    sim.run()
    assert second.published == 1 and second.job_state(job) is None


# -- one unit per state transition ----------------------------------------


def test_publish_is_one_frame_and_delivery_writes_none():
    sim = Simulator()
    queue = make_queue(sim)
    frames = []
    queue.db.wal.taps.append(frames.append)
    queue.publish("ncsa", "j1", "done")
    queue.publish("ncsa", "j2", "lost", error=True)
    sim.run()  # both deliveries land
    assert queue.delivered == 2
    # One insert per job, each its own frame; the deliveries logged nothing.
    assert [[dml[:2] for dml in f[2]] for f in frames] == [
        [("insert", JOB_STATES_TABLE)], [("insert", JOB_STATES_TABLE)]]


def test_queue_over_recovered_database_replays_history():
    sim = Simulator()
    queue = make_queue(sim)
    assert queue.publish("ncsa", "j1", "done") == 1
    # Crash: the appliance comes back over the recovered WAL image.
    recovered = Database.recover(queue.db.wal.snapshot())
    sim2 = Simulator()
    reborn = NotifyQueue(sim2, recovered, propagation=0.5)
    # A job that ended before the crash replays from its row ...
    assert reborn.subscribe("ncsa", "j1").value["state"] == "done"
    assert reborn.replayed == 1
    # ... and a new one is published and delivered beside it.
    assert reborn.publish("ncsa", "j2", "done") == 1
    waiter = reborn.subscribe("ncsa", "j2")
    assert reborn.replayed == 2  # its row exists from the publish frame
    sim2.run()
    assert reborn.delivered == 1
    assert waiter.value["state"] == "done"
    assert recovered.count(JOB_STATES_TABLE) == 2


def test_failing_state_write_publishes_nothing():
    from repro.errors import DatabaseError

    sim = Simulator()
    queue = make_queue(sim)
    queue.publish("ncsa", "j1", "done")
    size, scheduled = queue.db.wal.size(), len(sim._heap)
    with pytest.raises(DatabaseError, match="NOT NULL"):
        queue.publish("ncsa", "j2", None)
    # No row, nothing logged, counted or scheduled.
    assert queue.job_state("j2") is None
    assert queue.db.wal.size() == size
    assert queue.published == 1 and len(sim._heap) == scheduled
