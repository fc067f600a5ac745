"""Steady state in the DB tier (DESIGN.md §15, "The log's lifetime").

A provider that keeps re-uploading a fixed executable must not make the
appliance's memory grow with the uploads done: the database compacts its
log once the dead versions outweigh the live ones, and the version memo
never holds a version the store has replaced.  Fresh uploads supersede
nothing and must never trigger a compaction.
"""

import gc

from repro.core.context import RequestContext
from repro.core.fabric import deploy_fabric
from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig, deploy_onserve
from repro.db import engine
from repro.grid.testbed import build_testbed
from repro.simkernel import Simulator
from repro.simkernel.events import ConditionEvent, Timeout
from repro.telemetry.gauges import gauges
from repro.units import KB
from repro.workloads.executables import make_payload
from tests.db.test_dbmanager import counted

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
                           db_chunk_bytes=64 * 1024)
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
    versions = []   # every version stored, kept so ids stay put
    sizes = []

    def reachable():
        held = {id(seg) for seg in db.wal._segments}
        held |= {id(row[3]) for _, row in db.tables[manager.TABLE].scan()}
        held |= {id(exe.payload) for exe in memo._entries.values()}
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
    # The memo holds the current version alone, as its store left it:
    # the row's object, the very payload each republish seeded to the
    # sites.
    [(name, exe)] = memo._entries.items()
    assert name == "own.sh" and exe.payload is versions[-1]
    staged = [copy for site in tb.sites
              for path, copy in site.storage.items()
              if path.endswith("/own.sh")]
    assert staged and all(copy is exe.payload for copy in staged)


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


def test_the_staged_copy_is_the_memos_payload(monkeypatch):
    sim, tb, stack = production_fabric(monkeypatch)
    reply, want = upload_then_invoke(sim, tb, stack, "a.sh", "A%", 0)
    assert reply == want
    [exe] = stack.dbmanager._memo._entries.values()
    staged = [data for site in tb.sites
              for path, data in site.storage.items()
              if path.endswith("/a.sh")]
    assert staged and all(copy is exe.payload for copy in staged)
    # Every later load of the version hands out that one executable.
    assert sim.run(until=stack.dbmanager.load_executable("a.sh")) is exe


def test_a_faithful_invoke_stages_the_uploaded_object_and_inflates_nothing(
        monkeypatch):
    sim = Simulator(seed=0)
    tb = build_testbed(sim=sim, n_sites=2, nodes_per_site=2,
                       cores_per_node=4, n_users=2)
    stack = sim.run(until=deploy_onserve(tb))
    calls = counted(monkeypatch)
    payload = make_payload("echo", size=int(KB(96)), nonce="faithful")
    sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "f.sh", payload, params_spec="token:string"))
    reply = sim.run(until=discover_and_invoke(
        stack, stack.user_clients[1], "F%", token="t"))
    assert reply == "t\n"
    staged = [data for site in tb.sites
              for path, data in site.storage.items()
              if path.endswith("/f.sh")]
    assert staged and all(copy is payload for copy in staged)
    assert calls["inflate"] == 0


def test_finished_invocations_leave_only_their_durable_rows(monkeypatch):
    sim, tb, stack = production_fabric(monkeypatch)
    upload_then_invoke(sim, tb, stack, "hot.sh", "Hot%", 0)
    for round_ in range(ROUNDS):
        token = f"hot-{round_}"
        assert sim.run(until=discover_and_invoke(
            stack, stack.user_clients[round_ % 2], "Hot%",
            token=token)) == token + "\n"
    manager = stack.dbmanager
    # The durable rows are there, on the primary.
    assert manager.db.count("invocations") == ROUNDS + 1
    # A routed invocation writes no dedup row.
    assert manager.db.count("invocation_dedup") == 0
    # Each invocation's six-hour deadline is still queued, bare.
    assert not [ev for _, _, ev in sim._heap if isinstance(ev, Timeout)
                for cb in ev.callbacks or ()
                if isinstance(getattr(cb, "__self__", None), ConditionEvent)
                and cb.__self__.triggered]
    # Nobody recorded a gauge, so none holds a series.
    assert gauges(sim).series() == []
    # Every job is a retired record: no parsed RSL, no completion event.
    jobs = [job for site in tb.sites for job in site._jobs.values()]
    assert len(jobs) == ROUNDS + 1
    assert all(job.description is None and job.completion is None
               for job in jobs)
    runtimes = [o.runtimes["HotService"] for o in stack.onserves
                if "HotService" in o.runtimes]
    assert sum(rt.invocations_ok for rt in runtimes) == ROUNDS + 1


def cyclic_garbage(run):
    """What *run* leaves that only the cyclic collector can free: the
    count ``gc.collect()`` finds with automatic collection off."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


def hot_invokes(sim, stack, pattern, rounds=4):
    def run():
        for round_ in range(rounds):
            token = f"hot-{round_}"
            ctx = RequestContext.create(sim, principal="user")
            assert sim.run(until=discover_and_invoke(
                stack, stack.user_clients[round_ % 2], pattern, ctx=ctx,
                token=token)) == token + "\n"
            assert ctx.root.find("client:HotService.execute") is not None
    return run


def test_hot_invocations_on_a_production_fabric_leave_no_cyclic_garbage(
        monkeypatch):
    """A finished request is freed by reference counting: its trace
    spans reach their parents weakly and its timeouts' queue slots do
    not hold them (DESIGN.md §5, "A request's lifetime")."""
    sim, tb, stack = production_fabric(monkeypatch)
    upload_then_invoke(sim, tb, stack, "hot.sh", "Hot%", 0)
    assert cyclic_garbage(hot_invokes(sim, stack, "Hot%")) == 0


def test_hot_invocations_on_a_faithful_appliance_leave_no_cyclic_garbage():
    sim = Simulator(seed=0)
    tb = build_testbed(sim=sim, n_sites=2, nodes_per_site=2,
                       cores_per_node=4, n_users=2)
    stack = sim.run(until=deploy_onserve(tb))
    upload_then_invoke(sim, tb, stack, "hot.sh", "Hot%", 0)
    assert cyclic_garbage(hot_invokes(sim, stack, "Hot%")) == 0
