"""Unit tests for WAL-shipping read replicas and the read router."""

import pytest

from repro.db.engine import Database
from repro.db.replica import ReadReplica, ReadRouter
from repro.db.table import Column
from repro.errors import DatabaseError
from repro.simkernel import Simulator

LAG = 0.5


def users_schema():
    return [
        Column("id", "INT", primary_key=True),
        Column("name", "TEXT", nullable=False),
    ]


def test_negative_lag_rejected():
    sim = Simulator()
    with pytest.raises(DatabaseError, match="lag"):
        ReadReplica(sim, Database(), lag=-0.1)


def test_bootstrap_refuses_mid_transaction():
    sim = Simulator()
    db = Database()
    db.create_table("users", users_schema())
    db.begin()
    with pytest.raises(DatabaseError, match="mid-transaction"):
        ReadReplica(sim, db, lag=LAG)
    db.rollback()


def test_bootstrap_syncs_existing_image():
    sim = Simulator()
    db = Database()
    db.create_table("users", users_schema())
    db.insert("users", [1, "ada"])
    replica = ReadReplica(sim, db, lag=LAG)
    # Rows written before attach are visible immediately (initial sync).
    assert replica.db.count("users") == 1
    assert replica.backlog() == 0


def test_records_apply_only_after_lag():
    sim = Simulator()
    db = Database()
    replica = ReadReplica(sim, db, lag=LAG)
    db.create_table("users", users_schema())
    db.insert("users", [1, "ada"])  # ships at sim.now == 0.0
    assert replica.backlog() > 0
    assert "users" not in replica.db.tables
    # Just short of the lag: nothing is due yet.
    assert replica.catch_up(now=LAG - 0.01) == 0
    assert "users" not in replica.db.tables
    # At the lag boundary everything shipped at t=0 becomes due.
    assert replica.catch_up(now=LAG) > 0
    assert replica.db.count("users") == 1
    assert replica.backlog() == 0


def test_transactions_apply_atomically_at_commit():
    sim = Simulator()
    db = Database()
    db.create_table("users", users_schema())
    replica = ReadReplica(sim, db, lag=LAG)

    def flow():
        db.begin()
        db.insert("users", [1, "ada"])
        yield sim.timeout(1.0)
        db.insert("users", [2, "bob"])
        yield sim.timeout(1.0)
        db.commit()  # ships at t=2.0

    sim.run(until=sim.process(flow()))
    # Both inserts are past their lag, the commit is not: nothing lands.
    replica.catch_up(now=2.0)
    assert replica.db.count("users") == 0
    # Once the commit record is due, the whole txn appears at once.
    replica.catch_up(now=2.0 + LAG)
    assert replica.db.count("users") == 2
    assert replica.txns_applied >= 1


def test_aborted_transaction_never_applies():
    sim = Simulator()
    db = Database()
    db.create_table("users", users_schema())
    replica = ReadReplica(sim, db, lag=LAG)
    db.begin()
    db.insert("users", [1, "ada"])
    db.rollback()
    replica.catch_up(now=100.0)
    assert replica.db.count("users") == 0
    assert replica.backlog() == 0


def test_unread_replica_applies_nothing_and_schedules_nothing():
    sim = Simulator()
    db = Database()
    replica = ReadReplica(sim, db, lag=LAG)
    db.create_table("users", users_schema())
    db.insert("users", [1, "ada"])
    with db.transaction():
        db.insert("users", [2, "bob"])
    # Application is lazy: until a reader asks, shipped records only
    # queue — no table materializes and no simulation event exists.
    assert replica.backlog() == 3
    assert replica.db.tables == {}
    assert replica.records_applied == 0
    assert sim.peek() == float("inf")


def test_router_read_your_writes_then_replica():
    sim = Simulator()
    db = Database()
    db.create_table("users", users_schema())
    replica = ReadReplica(sim, db, lag=LAG)
    router = ReadRouter(sim, db, replicas=(replica,), lag=LAG)
    got = []

    def flow():
        db.insert("users", [1, "ada"])
        got.append(router.reader("users"))  # within the lag window
        yield sim.timeout(LAG)
        got.append(router.reader("users"))  # write is provably applied

    sim.run(until=sim.process(flow()))
    first, second = got
    # Read-your-writes: the fresh write pins reads to the primary.
    assert first is db
    assert router.primary_reads == 1
    # After one lag interval the replica serves, and serves fresh data.
    assert second is replica.db
    assert router.replica_reads == 1
    assert second.get_by_pk("users", 1)["name"] == "ada"


def test_router_commit_restamps_freshness():
    """A txn's writes count from *commit* time — the replica only
    applies them when the commit record is due, so eligibility keyed
    off the DML timestamps would serve a stale view."""
    sim = Simulator()
    db = Database()
    db.create_table("users", users_schema())
    replica = ReadReplica(sim, db, lag=LAG)
    router = ReadRouter(sim, db, replicas=(replica,), lag=LAG)

    def flow():
        yield sim.timeout(LAG)  # let the DDL replicate first
        db.begin()
        db.insert("users", [1, "ada"])
        yield sim.timeout(2.0)  # DML is now ancient...
        db.commit()             # ...but the commit is brand new
        early = router.reader("users")
        yield sim.timeout(LAG)
        late = router.reader("users")
        return early, late

    early, late = sim.run(until=sim.process(flow()))
    assert early is db          # guard held: commit not yet replicated
    assert late is replica.db
    assert late.count("users") == 1


def test_router_serves_primary_while_a_transaction_is_open():
    """Table stamps land at commit, so during the open unit a replica
    looks fresh for a table the unit already wrote — the router must not
    believe it."""
    sim = Simulator()
    db = Database()
    db.create_table("users", users_schema())
    db.create_table("other", users_schema())
    replica = ReadReplica(sim, db, lag=LAG)
    router = ReadRouter(sim, db, replicas=(replica,), lag=LAG)

    def flow():
        yield sim.timeout(LAG)  # DDL replicated: both tables are fresh
        assert router.reader("users") is replica.db
        with db.transaction():
            db.insert("users", [1, "ada"])
            inside = router.reader("users")
            # ...and for any table: the unit may be about to write it.
            assert router.reader("other") is db
            assert inside.get_by_pk("users", 1)["name"] == "ada"
        after = router.reader("users")   # committed just now: still primary
        db.begin()
        db.insert("users", [2, "bob"])
        db.rollback()
        yield sim.timeout(LAG)
        return inside, after, router.reader("users")

    inside, after, late = sim.run(until=sim.process(flow()))
    assert inside is db and after is db
    # The rolled-back write stamped nothing and shipped nothing.
    assert late is replica.db and late.count("users") == 1
    assert (router.replica_reads, router.primary_reads) == (2, 3)


def test_router_bounded_staleness():
    sim = Simulator()
    db = Database()
    db.create_table("users", users_schema())
    replica = ReadReplica(sim, db, lag=LAG)
    router = ReadRouter(sim, db, replicas=(replica,), lag=LAG)

    def flow():
        for i in range(5):
            db.insert("users", [i, f"u{i}"])
            yield sim.timeout(0.3)
            router.reader("users")
        yield sim.timeout(LAG)
        router.reader("users")

    sim.run(until=sim.process(flow()))
    assert router.replica_reads > 0
    # Every replica-served read observed a view at most one lag behind.
    from repro.telemetry.events import bus
    for ev in bus(sim).events(kind="db.replica.read"):
        assert ev.fields["behind"] <= LAG
        assert ev.fields["lag_bound"] == LAG


def test_router_without_replicas_serves_primary():
    sim = Simulator()
    db = Database()
    db.create_table("users", users_schema())
    router = ReadRouter(sim, db)
    assert router.reader("users") is db
    assert router.primary_reads == 1
    assert router.replica_reads == 0


def test_a_checkpoint_is_invisible_to_replication():
    """Compacting the primary's log ships nothing: the replica holds the
    state already and the router's freshness stamps do not move."""
    sim = Simulator()
    db = Database()
    db.create_table("users", users_schema())
    db.create_table("idle", users_schema())
    replica = ReadReplica(sim, db, lag=LAG)
    router = ReadRouter(sim, db, replicas=(replica,), lag=LAG)
    got = []

    def flow():
        db.insert("users", [1, "ada"])
        db.update_eq("users", "id", 1, {"name": "grace"})
        yield sim.timeout(LAG)
        got.append(router.reader("users"))
        fresh = {t: router.fresh_for(t) for t in ("users", "idle")}
        size = db.wal.size()
        db.checkpoint()
        assert db.wal.size() < size
        assert replica.backlog() == 0
        assert {t: router.fresh_for(t) for t in fresh} == fresh
        got.append(router.reader("users"))
        # A write after the checkpoint is shipped as ever.
        db.insert("users", [2, "edsger"])
        assert replica.backlog() == 1 and not router.fresh_for("users")

    sim.run(until=sim.process(flow()))
    assert got == [replica.db, replica.db]
    assert (router.replica_reads, router.primary_reads) == (2, 0)
    assert replica.db.get_by_pk("users", 1)["name"] == "grace"
    # A replica attached now bootstraps from the compacted image + tail.
    late = ReadReplica(sim, db, lag=LAG)
    assert late.db.select("users") == db.select("users")
