"""Unit tests for the WAL-shipping replica (the log's replay oracle)."""

import pytest

from repro.db.engine import Database
from repro.db.replica import ReadReplica
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


def test_a_checkpoint_is_invisible_to_replication():
    """Compacting the primary's log ships nothing: the replica holds the
    state already."""
    sim = Simulator()
    db = Database()
    db.create_table("users", users_schema())
    db.create_table("idle", users_schema())
    replica = ReadReplica(sim, db, lag=LAG)
    db.insert("users", [1, "ada"])
    db.update_eq("users", "id", 1, {"name": "grace"})
    replica.catch_up(now=LAG)
    applied = replica.records_applied
    size = db.wal.size()
    db.checkpoint()
    assert db.wal.size() < size
    assert replica.backlog() == 0
    assert replica.catch_up(now=2 * LAG) == 0
    assert replica.records_applied == applied
    assert replica.db.get_by_pk("users", 1)["name"] == "grace"
    # A write after the checkpoint is shipped as ever.
    db.insert("users", [2, "edsger"])
    assert replica.backlog() == 1
    # A replica attached now bootstraps from the compacted image + tail.
    late = ReadReplica(sim, db, lag=LAG)
    assert late.db.select("users") == db.select("users")
