"""Steady state in the DB tier (DESIGN.md §15, "The log's lifetime").

A provider that keeps re-uploading a fixed executable must not make the
appliance's memory grow with the uploads done: the database compacts its
log once the dead versions outweigh the live ones, and the inflate memo
does not pin a version the store has dropped.  Fresh uploads supersede
nothing and must never trigger a compaction.
"""

from repro.core.fabric import deploy_fabric
from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig
from repro.db import engine
from repro.grid.testbed import build_testbed
from repro.simkernel import Simulator
from repro.telemetry.gauges import gauges
from repro.units import KB
from repro.workloads.executables import make_payload

FLOOR = 256 * 1024
ROUNDS = 12


def production_fabric(monkeypatch):
    """A small routed fabric with the production planes on, and a floor
    that 96 KB executables pass in two re-uploads."""
    monkeypatch.setattr(engine, "_COMPACT_FLOOR", FLOOR)
    sim = Simulator(seed=0)
    tb = build_testbed(sim=sim, n_sites=2, nodes_per_site=2,
                       cores_per_node=4, n_users=2)
    config = OnServeConfig(coalesce=True, datapath=True, notify=True,
                           db_mvcc=True, db_serialize=True,
                           db_chunk_bytes=64 * 1024, db_replicas=2)
    stack = sim.run(until=deploy_fabric(tb, config, replicas=2, router=True,
                                        self_healing=True))
    stack.enable_client_caches()
    return sim, tb, stack


def upload_then_invoke(sim, tb, stack, file, pattern, round_):
    """Publish *file* with bytes of this round's own, invoke it once;
    returns the reply and the token it must echo."""
    token = f"{file}-{round_}"
    sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], file,
        make_payload("echo", size=int(KB(96)), nonce=token),
        params_spec="token:string"))
    reply = sim.run(until=discover_and_invoke(
        stack, stack.user_clients[1], pattern, token=token))
    return reply, token + "\n"


def test_re_uploads_hold_a_bounded_number_of_versions(monkeypatch):
    sim, tb, stack = production_fabric(monkeypatch)
    manager = stack.dbmanager
    db, memo = manager.db, manager._memo
    versions = []   # every compressed version stored, kept so ids stay put
    sizes = []

    def reachable():
        held = {id(seg) for seg in db.wal._segments}
        held |= {id(row[3]) for _, row in db.tables[manager.TABLE].scan()}
        held |= {id(entry[0]) for entry in memo._entries.values()}
        return sum(id(v) in held for v in versions)

    for round_ in range(ROUNDS):
        reply, want = upload_then_invoke(sim, tb, stack, "own.sh", "Own%",
                                         round_)
        assert reply == want
        versions.append(db.get_by_pk(manager.TABLE, "own.sh")["data"])
        assert reachable() <= 3
        sizes.append(db.wal.size())
        assert gauges(sim).gauge("db.wal_bytes").current == sizes[-1]
    assert len({id(v) for v in versions}) == ROUNDS
    assert db.stats["compactions"] >= ROUNDS // 2 - 1
    # The log stays within twice what is live plus the floor, where the
    # parent's grew by two versions a round.
    db.checkpoint()
    live = db.wal.size()
    assert max(sizes) <= 2 * live + FLOOR
    assert live < 2 * len(versions[-1]) + 64 * 1024
    # One fetch a version: each left a marker, and a marker pins nothing.
    assert not memo._entries and list(memo._markers) == ["own.sh"]


def test_fresh_uploads_never_compact(monkeypatch):
    sim, tb, stack = production_fabric(monkeypatch)
    for round_ in range(ROUNDS):
        reply, want = upload_then_invoke(
            sim, tb, stack, f"fresh{round_:02d}.sh", f"Fresh{round_:02d}%",
            round_)
        assert reply == want
    db = stack.dbmanager.db
    assert db.wal.size() > 4 * FLOOR    # a megabyte logged, none of it dead
    assert db.stats["compactions"] == 0
