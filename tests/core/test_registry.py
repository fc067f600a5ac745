"""Unit tests for the ServiceStateStore (externalized service state)."""

from repro.core.datastructures import GeneratedService
from repro.core.registry import ServiceStateStore
from repro.db import DbManager
from repro.hardware import Host, Network
from repro.hardware.host import HostSpec
from repro.simkernel import Simulator


def make_store():
    sim = Simulator()
    net = Network(sim)
    host = Host(sim, "appliance", net, HostSpec(cores=2))
    return sim, ServiceStateStore(DbManager(host).db)


def make_service(name="HelloService", archive_size=1024):
    return GeneratedService(
        service_name=name, executable_name="hello.sh",
        endpoint=f"soap://appliance/{name}",
        wsdl_location=f"soap://appliance/{name}?wsdl",
        uddi_service_key="S-1", uddi_binding_key="B-1",
        archive_size=archive_size, created_at=1.5)


def test_record_roundtrip_and_rehydrate():
    sim, store = make_store()
    store.put_record(make_service(), replica="appliance")
    row = store.get_record("HelloService")
    assert row["replica"] == "appliance"
    # How often a service ran is the history table's to say.
    assert "invocations" not in row
    back = ServiceStateStore.rehydrate(row)
    assert back.service_name == "HelloService"
    assert back.endpoint == "soap://appliance/HelloService"
    assert back.archive_size == 1024
    assert back.created_at == 1.5
    assert not hasattr(back, "invocations")


def test_put_record_replaces_in_place():
    sim, store = make_store()
    store.put_record(make_service(), replica="appliance")
    replacement = make_service()
    replacement.archive_size = 2048
    store.put_record(replacement, replica="appliance02")
    assert store.record_count() == 1
    row = store.get_record("HelloService")
    assert row["archive_size"] == 2048
    assert row["replica"] == "appliance02"


def test_all_records_sorted_by_name():
    sim, store = make_store()
    for name in ("Zeta", "Alpha", "Mid"):
        store.put_record(make_service(name), replica="appliance")
    assert [r["service_name"] for r in store.all_records()] == \
        ["Alpha", "Mid", "Zeta"]


def test_remove_fans_out_to_other_replicas_only():
    sim, store = make_store()
    fired = []
    store.subscribe("a", lambda n: fired.append(("a", "rm", n)),
                    lambda n: fired.append(("a", "re", n)))
    store.subscribe("b", lambda n: fired.append(("b", "rm", n)),
                    lambda n: fired.append(("b", "re", n)))
    store.put_record(make_service(), replica="a")
    row = store.remove_record("HelloService", origin="a")
    assert row["service_name"] == "HelloService"
    assert fired == [("b", "rm", "HelloService")]
    # Removing an absent record neither returns a row nor fans out.
    fired.clear()
    assert store.remove_record("HelloService", origin="a") is None
    assert fired == []


def test_republish_fans_out_minus_origin():
    sim, store = make_store()
    fired = []
    store.subscribe("a", lambda n: fired.append("a"), lambda n: fired.append("a-re"))
    store.subscribe("b", lambda n: fired.append("b"), lambda n: fired.append("b-re"))
    store.record_republished("HelloService", origin="b")
    assert fired == ["a-re"]
    store.unsubscribe("a")
    fired.clear()
    store.record_republished("HelloService", origin="b")
    assert fired == []


def test_staged_copies_are_fabric_global():
    sim, store = make_store()
    assert store.staged_digest("siteA", "/tmp/hello") is None
    store.mark_staged("siteA", "/tmp/hello", "d1", replica="a")
    store.mark_staged("siteB", "/tmp/hello", "d1", replica="b")
    store.mark_staged("siteA", "/tmp/other", "d2", replica="a")
    # Visible regardless of which replica staged the copy.
    assert store.staged_digest("siteB", "/tmp/hello") == "d1"
    # Restaging the same (site, path) replaces the digest.
    store.mark_staged("siteA", "/tmp/hello", "d9", replica="b")
    assert store.staged_digest("siteA", "/tmp/hello") == "d9"
    # A replacement upload evicts every site's copy of that path.
    assert store.evict_staged("/tmp/hello") == ["siteA", "siteB"]
    assert store.staged_digest("siteA", "/tmp/hello") is None
    assert store.staged_copies() == [("siteA", "/tmp/other", "d2")]


def test_counters_monotonic_and_seed_once():
    sim, store = make_store()
    store.seed_counters()
    first = store.next_invocation_id()
    assert first == 1
    assert store.next_invocation_id() == 2
    # Tag sequence shares the seed but advances independently.
    assert store.next_tag_seq() == 1
    assert store.next_tag_seq() == 2
    # Re-seeding later must never rewind ids already handed out.
    store.seed_counters()
    assert store.next_invocation_id() == 3
    assert store.next_tag_seq() == 3


def test_shared_store_single_schema():
    """Two replicas over one Database share one set of tables."""
    sim = Simulator()
    net = Network(sim)
    host = Host(sim, "appliance", net, HostSpec(cores=2))
    db = DbManager(host).db
    store_a = ServiceStateStore(db)
    store_b = ServiceStateStore(db)  # idempotent table creation
    store_a.put_record(make_service(), replica="a")
    assert store_b.get_record("HelloService") is not None


def test_dedup_records_once_and_flags_duplicates():
    sim, store = make_store()
    key = "req-1|RouteService.invoke"
    assert store.dedup_result(key) is None
    assert store.dedup_count() == 0
    assert store.record_dedup(key, "replica1", "out.dat", now=3.0)
    assert store.dedup_result(key) == "out.dat"
    assert store.dedup_count() == 1
    # A second completion of the same key is the double-execution the
    # chaos gate hunts for: refused, and counted.
    assert store.dedup_duplicates == 0
    assert not store.record_dedup(key, "replica2", "other.dat", now=4.0)
    assert store.dedup_result(key) == "out.dat"
    assert store.dedup_count() == 1
    assert store.dedup_duplicates == 1
    # Distinct keys never collide.
    assert store.record_dedup("req-2|RouteService.invoke", "replica2",
                              "out2.dat", now=5.0)
    assert store.dedup_count() == 2


def _per_job_costs(n_jobs):
    """(heap rows visited, WAL frames by tables written) per job for the
    per-invocation bookkeeping: notify publish/deliver/replay, staging
    mark and dedup record."""
    from collections import Counter

    from repro.grid.notify import NotifyQueue

    sim, store = make_store()
    db = store.db
    queue = NotifyQueue(sim, db, propagation=0.5)
    store.put_record(make_service(), replica="appliance")
    db.stats["rows_scanned"] = 0
    frames = []
    db.wal.taps.append(frames.append)
    for j in range(n_jobs):
        job, replica = f"job-{j}", f"appliance{j % 4:02d}"
        queue.publish("ncsa", job, "done")
        sim.run(until=sim.timeout(1.0))             # the delivery lands
        assert queue.job_state(job)["state"] == "done"
        assert queue.subscribe("ncsa", job).value["state"] == "done"
        store.mark_staged("ncsa", f"/stage/{j}.bin", f"digest-{j}", replica)
        assert store.staged_digest("ncsa", f"/stage/{j}.bin")
        assert store.record_dedup(f"req-{j}|Hello.execute", replica, "out",
                                  sim.now)
        assert store.dedup_result(f"req-{j}|Hello.execute") == "out"
    assert queue.delivered == n_jobs and db.count("job_states") == n_jobs
    written = Counter("+".join(sorted({dml[1] for dml in frame[2]}))
                      for frame in frames)
    return (db.stats["rows_scanned"] / n_jobs,
            {tables: n / n_jobs for tables, n in written.items()})


def test_per_job_bookkeeping_scan_budget_does_not_grow_with_history():
    # Every statement above names its row by key.  An equality lambda
    # slipped back into any of them makes the per-job count grow with the
    # rows already written — caught here as a count, not as a timing.
    (small, _), (large, _) = _per_job_costs(25), _per_job_costs(100)
    assert large <= small
    assert small == 0


def test_per_job_frame_budget_is_one_frame_per_state_transition():
    # One WAL frame per unit of work, whatever the history behind it: a
    # write split back into delete + insert, or a unit into its
    # statements, shows here as a count.
    budget = {
        "job_states": 1,                # publish done (delivery: none)
        "staged_copies": 1,             # mark_staged
        "invocation_dedup": 1,          # record_dedup
    }
    for n_jobs in (25, 100):
        _, frames = _per_job_costs(n_jobs)
        assert frames == budget
        assert sum(frames.values()) <= 3


def test_upsert_sites_update_in_place():
    sim, store = make_store()
    db = store.db
    store.put_record(make_service(), replica="a")
    store.mark_staged("ncsa", "/stage/x", "d1", "a")
    rowids = {t: [r for r, _ in db.tables[t].scan()] for t in db.tables}
    frames = []
    db.wal.taps.append(frames.append)
    store.put_record(make_service(archive_size=2048), replica="b")
    store.mark_staged("ncsa", "/stage/x", "d2", "b")
    # Same rows, rewritten where they stand: one update each, one frame each.
    assert [[dml[0] for dml in f[2]] for f in frames] == [["update"]] * 2
    assert rowids == {t: [r for r, _ in db.tables[t].scan()]
                      for t in db.tables}
    assert store.get_record("HelloService")["archive_size"] == 2048
    assert store.staged_digest("ncsa", "/stage/x") == "d2"
