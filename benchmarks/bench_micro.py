"""MICRO — wall-clock microbenchmarks of the real code paths.

These are engineering benchmarks (no paper counterpart): they time the
actual Python implementations — the event kernel, SOAP marshalling,
WSDL round-trips, the SQL engine, WAL recovery, RSL, and the batch
scheduler — so performance regressions in the substrate are visible.
"""

import random
import time

from repro.db import Database, execute_sql
from repro.db.table import Column
from repro.grid import BatchScheduler, GridJob, JobDescription, JobState
from repro.grid.node import ComputeNode, NodePool
from repro.grid.rsl import generate_rsl, parse_rsl
from repro.simkernel import Simulator
from repro.ws import (
    OperationSpec, ParameterSpec, ServiceDescription, generate_wsdl,
    parse_wsdl,
)
from repro.ws.soap import SoapEnvelope


def _best_of(fn, n, rounds=7):
    """Seconds per call of *fn*: the best of *rounds* loops of *n* calls."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / n


def test_micro_event_kernel_throughput(benchmark):
    """Schedule+process 10k timeout events."""

    def run():
        sim = Simulator()
        for i in range(10_000):
            sim.timeout(i * 0.001)
        sim.run()
        return sim.events_processed

    assert benchmark(run) == 10_000


def test_micro_process_switching(benchmark):
    """1000 processes ping-ponging through 10 yields each."""

    def run():
        sim = Simulator()

        def worker():
            for _ in range(10):
                yield sim.timeout(1.0)

        for _ in range(1000):
            sim.process(worker())
        sim.run()
        return sim.events_processed

    benchmark(run)


def test_micro_soap_roundtrip(benchmark):
    env = SoapEnvelope.request("execute", {
        "name": "alice", "count": 7, "rate": 2.5, "blob": b"x" * 4096})

    def run():
        return SoapEnvelope.decode(env.encode())

    decoded = benchmark(run)
    assert decoded.params["count"] == 7


def test_micro_soap_size():
    """Wire sizing must stay far cheaper than rendering the envelope.

    A ratio of two loops in one process, so host-speed drift cancels:
    ``size()`` at least 5x faster than ``len(encode())`` on a 4 KB
    envelope (where the fixed per-element arithmetic dominates) and 100x
    on a 1 MB one (where ``encode`` pays base64 + rendering per byte and
    ``size`` pays nothing per byte).
    """
    for nbytes, n, floor in ((4096, 2000, 5.0), (1 << 20, 10, 100.0)):
        env = SoapEnvelope.request("uploadExecutable", {
            "session": "s-0001", "site": "ncsa", "path": "/tmp/x",
            "data": random.Random(nbytes).randbytes(nbytes)})
        assert env.size() == len(env.encode())
        rendered = _best_of(lambda: len(env.encode()), n)
        computed = _best_of(env.size, n * 10)
        ratio = rendered / computed
        print(f"\nsoap size {nbytes} B: computed {computed * 1e6:.2f} us, "
              f"rendered {rendered * 1e6:.2f} us, {ratio:.0f}x")
        assert ratio >= floor, (
            f"size() only {ratio:.1f}x faster than len(encode()) on a "
            f"{nbytes} B envelope (floor: {floor:.0f}x)")


def test_micro_transfer_hop():
    """A transfer as a completion event must stay well under the
    process-wrapped form it replaced.

    10 000 sequential 4 KB transfers over one link, against the
    generator-process reference the equivalence tests keep.  A ratio of
    two loops in one process, so host-speed drift cancels; both run on
    the same kernel and fair-share server, so only the wrapping differs.
    """
    from repro.hardware import Network
    from tests.hardware.test_op_equivalence import reference_transfer

    def hop_seconds(transfer, n=10_000):
        sim = Simulator()
        net = Network(sim)
        net.connect("client", "appliance", bandwidth=1e7, latency=0.0005)

        def driver():
            for _ in range(n):
                yield transfer(net, "client", "appliance", 4096)

        done = sim.process(driver())
        t0 = time.perf_counter()
        sim.run(until=done)
        seconds = time.perf_counter() - t0
        return seconds / n, sim.now, sim.events_processed

    chained = min(hop_seconds(Network.transfer) for _ in range(5))
    wrapped = min(hop_seconds(reference_transfer) for _ in range(5))
    assert chained[1] == wrapped[1]  # same simulated instants
    assert wrapped[2] - chained[2] == 10_000  # one event fewer per hop
    ratio = wrapped[0] / chained[0]
    print(f"\ntransfer hop: completion event {chained[0] * 1e6:.2f} us, "
          f"process {wrapped[0] * 1e6:.2f} us, {ratio:.2f}x")
    assert ratio >= 1.3, (
        f"completion-event transfer only {ratio:.2f}x faster than the "
        f"process form (floor: 1.3x)")


def test_micro_wsdl_roundtrip(benchmark):
    service = ServiceDescription("Bench", [
        OperationSpec(f"op{i}", [ParameterSpec(f"p{j}") for j in range(4)])
        for i in range(8)
    ])

    def run():
        return parse_wsdl(generate_wsdl(service, "soap://h/Bench"))

    parsed, _ = benchmark(run)
    assert parsed == service


def test_micro_sql_insert_select(benchmark):
    def run():
        db = Database()
        execute_sql(db, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        execute_sql(db, "CREATE INDEX ON t (v)")
        db.begin()
        for i in range(500):
            db.insert("t", [i, f"value-{i % 50}"])
        db.commit()
        return execute_sql(db, "SELECT id FROM t WHERE v = 'value-7' "
                               "ORDER BY id LIMIT 5")

    rows = benchmark(run)
    assert len(rows) == 5


def test_micro_wal_recovery(benchmark):
    db = Database()
    db.create_table("t", [Column("k", "INT", primary_key=True),
                          Column("v", "BLOB")])
    payload = bytes(range(256)) * 8
    for i in range(300):
        db.insert("t", [i, payload])
    image = db.wal.snapshot()

    def run():
        return Database.recover(image).count("t")

    assert benchmark(run) == 300


def test_micro_wal_commit():
    """An autocommit insert through the one-frame commit must stay well
    under the begin / insert / commit framing it replaced.

    Same engine, same row, same DB tier around the log (byte gauge,
    ``wal.append`` bus event, a replica's tap and the read router's) —
    the reference only swaps in a log that spells each transaction frame
    out as the three-record framing the property tests keep.  A ratio of
    two loops in one process, so host-speed drift cancels.
    """
    from repro.db import DbManager
    from repro.db.dbmanager import DbTierConfig
    from repro.db.wal import WriteAheadLog
    from repro.hardware import Host, Network
    from tests.db.test_properties import reference_frames

    class ThreeRecordLog(WriteAheadLog):
        def append(self, record):
            records = (reference_frames(record) if record[0] == "txn"
                       else [record])
            return sum(WriteAheadLog.append(self, r) for r in records)

    def insert_seconds(wal, n=2000):
        sim = Simulator()
        manager = DbManager(Host(sim, "appliance", Network(sim)),
                            db=Database(wal=wal, mvcc=True),
                            tier=DbTierConfig(mvcc=True, replicas=1))
        db = manager.db
        db.create_table("invocations", [
            Column("id", "INT", primary_key=True),
            Column("service", "TEXT", nullable=False),
            Column("job_id", "TEXT"), Column("total", "REAL", nullable=False),
        ])
        ids = iter(range(10 ** 9))
        seconds = _best_of(lambda: db.insert("invocations", [
            next(ids), "Hot00Service", "ncsa-job-00001", 6.0]), n)
        return seconds, len(wal) / db.count("invocations")

    framed, per_insert = insert_seconds(WriteAheadLog())
    spelled, per_insert_ref = insert_seconds(ThreeRecordLog())
    assert (round(per_insert, 2), round(per_insert_ref, 2)) == (1.0, 3.0)
    ratio = spelled / framed
    print(f"\nautocommit insert: one frame {framed * 1e6:.2f} us, "
          f"begin/insert/commit {spelled * 1e6:.2f} us, {ratio:.2f}x")
    assert ratio >= 1.5, (
        f"one-frame commit only {ratio:.2f}x faster than the "
        f"three-record framing (floor: 1.5x)")


def test_micro_wal_blob_append():
    """A frame carrying a 1 MB BLOB must cost its small parts and one CRC
    pass, not three copies of the BLOB — and a BLOB-free frame no more
    than it did on the flat buffer.

    The reference is the ``bytearray`` log the segment list replaced,
    kept verbatim beside the property test that holds the two to the
    same image.  Each round times a fresh log of either kind, turn and
    turn about in one process, so host-speed drift cancels; the BLOB
    rounds grow each log to 64 MB, past the size up to which malloc
    recycles a freed buffer, because the appliance's log only ever grows.
    """
    from repro.db.wal import WriteAheadLog
    from tests.db.test_properties import reference_log

    def append_seconds(record, n, rounds):
        best = {reference_log: float("inf"), WriteAheadLog: float("inf")}
        for _ in range(rounds):
            for make in best:
                log = make()
                t0 = time.perf_counter()
                for _ in range(n):
                    log.append(record)
                best[make] = min(best[make], time.perf_counter() - t0)
        return best[reference_log] / n, best[WriteAheadLog] / n

    flat_small, seg_small = append_seconds(("txn", 7, [(
        "insert", "invocations", 3,
        (3, "Hot00Service", "ncsa-job-00001", 6.0))]), 20000, rounds=15)
    blob = random.Random(0).randbytes(1 << 20)
    flat, shared = append_seconds(("txn", 7, [(
        "insert", "executables", 3,
        ("a.bin", "bench", "n:string", blob, 1 << 20, 1 << 20, 6.0))]), 64,
        rounds=5)
    print(f"\n1 MB-BLOB frame: by reference {shared * 1e6:.0f} us, "
          f"copied {flat * 1e6:.0f} us, {flat / shared:.1f}x; "
          f"BLOB-free frame: segment {seg_small * 1e6:.2f} us, "
          f"flat {flat_small * 1e6:.2f} us, {seg_small / flat_small:.2f}x")
    assert flat / shared >= 3.0, (
        f"a 1 MB-BLOB frame by reference only {flat / shared:.1f}x faster "
        f"than copying it into a flat buffer (floor: 3x)")
    assert seg_small <= 1.10 * flat_small, (
        f"a BLOB-free frame costs {seg_small / flat_small:.2f}x the flat "
        f"buffer's (ceiling: 1.10x)")


def test_micro_hot_blob_load():
    """Loading a BLOB version again must cost the simulated fetch, not a
    second inflate and a second SHA-256 — and the first load of a version
    no more than it did without the memo.

    The reference is the ``DbManager`` load path the memo replaced, kept
    verbatim beside the property test that holds the two to the same
    payloads, events and clock.  Each round times a fresh manager of
    either kind over the same stored rows, turn and turn about in one
    process, and the ratios are taken round by round, so host-speed
    drift cancels.  A load is what the service runtime does with it: run
    the fetch process to completion and read the digest.
    """
    from statistics import median

    from repro.db import DbManager
    from repro.hardware import Host, Network
    from repro.hardware.host import HostSpec
    from tests.db.test_properties import reference_manager

    blob = random.Random(0).randbytes(64 << 10) * 4  # 256 KB, compressible
    names = [f"exe{i:02d}.bin" for i in range(12)]

    def manager(make, db=None):
        sim = Simulator()
        host = Host(sim, "appliance", Network(sim), HostSpec())
        return sim, make(host, db=db)

    sim, stored = manager(DbManager)
    for name in names:
        sim.run(until=stored.store_executable(name, blob))

    def seconds(make, repeats=50):
        """(first load of a version, a later load of one), per load."""
        sim, mgr = manager(make, stored.db)  # same rows, nothing derived yet
        first = float("inf")
        for name in names:
            t0 = time.perf_counter()
            sim.run(until=mgr.load_executable(name)).digest
            first = min(first, time.perf_counter() - t0)
        sim.run(until=mgr.load_executable(names[0])).digest
        t0 = time.perf_counter()
        for _ in range(repeats):
            exe = sim.run(until=mgr.load_executable(names[0]))
            exe.digest
        again = (time.perf_counter() - t0) / repeats
        assert exe.payload == blob
        return first, again

    # Paired by round: the two sides of a ratio ran within milliseconds of
    # each other, and the median round is the verdict.
    rounds = [(seconds(reference_manager), seconds(DbManager))
              for _ in range(41)]
    first_ratio = median(new[0] / ref[0] for ref, new in rounds)
    again_ratio = median(ref[1] / new[1] for ref, new in rounds)
    print(f"\n256 KB BLOB, repeated load: memo "
          f"{median(new[1] for _, new in rounds) * 1e6:.0f} us, "
          f"inflate+hash every time "
          f"{median(ref[1] for ref, _ in rounds) * 1e6:.0f} us, "
          f"{again_ratio:.1f}x; first load: "
          f"{median(ref[0] for ref, _ in rounds) * 1e6:.0f} us, "
          f"memo {first_ratio:.2f}x")
    assert again_ratio >= 3.0, (
        f"a repeated 256 KB load only {again_ratio:.1f}x cheaper than "
        f"inflating and hashing it again (floor: 3x)")
    assert first_ratio <= 1.05, (
        f"a first load costs {first_ratio:.2f}x the uncached path's "
        f"(ceiling: 1.05x)")


def test_micro_wal_compaction(monkeypatch):
    """A log that keeps being superseded must stay within twice what is
    live plus the floor, for at most a tenth more time than never
    compacting — and a log with nothing heavy in it never compacts.

    200 versions of four 256 KB BLOB rows (delete + insert, the way
    ``store_executable`` replaces one), each followed by ten small-row
    transactions, against the very same run with the floor out of reach.
    Turn and turn about in one process, so host-speed drift cancels; the
    ratio is the median over the rounds.
    """
    from statistics import median

    from repro.db import engine

    def run(floor, versions=200, blob=256 << 10):
        monkeypatch.setattr(engine, "_COMPACT_FLOOR", floor)
        db = Database()
        db.create_table("executables", [
            Column("name", "TEXT", primary_key=True), Column("data", "BLOB")])
        db.create_table("invocations", [
            Column("id", "INT", primary_key=True),
            Column("service", "TEXT", nullable=False),
            Column("job_id", "TEXT"), Column("total", "REAL", nullable=False),
        ])
        ids = iter(range(10 ** 9))
        t0 = time.perf_counter()
        for version in range(versions):
            name = f"own{version % 4:02d}.bin"
            with db.transaction():
                db.delete_eq("executables", "name", name)
                db.insert("executables",
                          [name, bytes([version % 251]) * blob])
            for _ in range(5):
                row = next(ids)
                db.insert("invocations", [row, "Own00Service", None, 0.0])
                db.update_eq("invocations", "id", row,
                             {"job_id": "ncsa-job-00001", "total": 6.0})
        seconds = time.perf_counter() - t0
        unique = sum(len(s) for s in
                     {id(s): s for s in db.wal._segments}.values())
        return seconds, unique, db

    floor = engine._COMPACT_FLOOR
    rounds = [(run(floor), run(float("inf"))) for _ in range(7)]
    (_, unique, db), (_, unbounded, never) = rounds[-1]
    assert never.stats["compactions"] == 0 < db.stats["compactions"]
    db.checkpoint()
    live = db.wal.size()
    ratio = median(kept[0] / grew[0] for kept, grew in rounds)
    print(f"\n200 x 256 KB versions + 2000 small transactions: "
          f"{db.stats['compactions'] - 1} compactions, log holds "
          f"{unique / 2**20:.1f} MB (live {live / 2**20:.1f} MB; "
          f"{unbounded / 2**20:.1f} MB uncompacted), time {ratio:.2f}x")
    assert unique <= 2 * live + floor
    assert ratio <= 1.10, (
        f"compacting costs {ratio:.2f}x the run that never does "
        f"(ceiling: 1.10x)")
    # The same number of frames with no BLOB in them: nothing to shed.
    _, _, small = run(floor, versions=220, blob=0)
    assert len(small.wal) >= 2200 and small.stats["compactions"] == 0


def test_micro_rsl_roundtrip(benchmark):
    desc = JobDescription(executable="/scratch/app", count=16,
                          arguments=[f"arg{i}" for i in range(8)],
                          max_wall_time=7200, environment=["A=1", "B=2"])

    def run():
        return parse_rsl(generate_rsl(desc))

    assert benchmark(run) == desc


def test_micro_scheduler_throughput(benchmark):
    """Push 500 jobs through FIFO+backfill on a 64-core pool."""

    def run():
        sim = Simulator()
        pool = NodePool([ComputeNode(f"n{i}", 8) for i in range(8)])
        scheduler = BatchScheduler(sim, pool)
        rng = random.Random(0)
        for i in range(500):
            desc = JobDescription(executable="/x",
                                  count=rng.randint(1, 16),
                                  max_wall_time=100)
            job = GridJob(f"j{i}", desc, "/CN=bench", 0.0)
            job.transition(JobState.STAGE_IN, 0.0)
            job.transition(JobState.PENDING, 0.0)
            scheduler.submit(job, runtime=rng.uniform(1, 90))
        sim.run()
        return scheduler.jobs_completed

    assert benchmark(run) == 500


def test_micro_uddi_publish_find(benchmark):
    """Publish 300 services, then pattern-search the registry."""
    from repro.ws import UddiRegistry

    def run():
        reg = UddiRegistry()
        biz = reg.save_business("Bench")
        for i in range(300):
            svc = reg.save_service(biz.key, f"Service{i:03d}")
            reg.save_binding(svc.key, f"soap://h/Service{i:03d}")
        return len(reg.find_service("service1%"))

    assert benchmark(run) == 100  # Service100..Service199


def test_micro_payload_roundtrip_1mb(benchmark):
    from repro.workloads import make_payload, parse_payload

    def run():
        payload = make_payload("fixed", size=1 << 20, runtime="5")
        return parse_payload(payload)

    profile, options = benchmark(run)
    assert profile == "fixed"


def test_micro_proxy_chain_validation(benchmark):
    import random

    from repro.security import CertificateAuthority, delegate_proxy, validate_chain

    ca = CertificateAuthority("BenchCA", random.Random(0))
    key, cert = ca.issue_identity("/CN=bench", 0.0, 10000.0,
                                  random.Random(1))
    k1, p1 = delegate_proxy(cert, key, 0.0, 5000.0, serial=1)
    k2, p2 = delegate_proxy(p1, k1, 0.0, 4000.0, serial=2)
    chain = [p2, p1, cert]
    trusted = {ca.name: ca.public_key}

    def run():
        return validate_chain(chain, trusted, now=100.0)

    assert benchmark(run) == "/CN=bench"


def test_micro_fairshare_contention(benchmark):
    """100 overlapping flows on one shared link."""
    from repro.hardware.fairshare import FairShareServer

    def run():
        sim = Simulator()
        srv = FairShareServer(sim, capacity=1000.0)

        def feed(i):
            yield sim.timeout(i * 0.1)
            yield srv.submit(500.0)

        for i in range(100):
            sim.process(feed(i))
        sim.run()
        return srv.work_integral()

    assert abs(benchmark(run) - 100 * 500.0) < 1e-6


def test_micro_pipeline_overhead():
    """Pipeline + event-bus emission must cost < 5% over direct dispatch.

    Two stable measurements instead of one noisy difference: (a) the
    pipeline's framing cost — which, since the metrics interceptor now
    emits a ``ws.request`` telemetry event per crossing, includes the
    observability plane's per-request bus cost — measured against a
    trivial terminal where the chain is the dominant signal, and (b)
    one realistic request cycle (envelope build + encode + decode on
    both legs).  The overhead budget is (a) as a fraction of (b) —
    comparing two nearly equal ~100 us loops directly would bury the
    ~2 us signal in scheduler noise.
    """
    from repro.ws.pipeline import (
        AdmissionControlInterceptor, DeadlineInterceptor,
        FaultTranslationInterceptor, Invocation, MetricsInterceptor,
        Pipeline, TracingInterceptor,
    )

    sim = Simulator()
    pipeline = Pipeline([
        FaultTranslationInterceptor(),
        MetricsInterceptor(sim),
        AdmissionControlInterceptor(sim),
        TracingInterceptor(),
        DeadlineInterceptor(sim),
    ])
    params = {"name": "alice", "count": 7, "blob": b"x" * 2048}
    inv = Invocation(None, "BenchService", "execute", params, side="server")

    def request_cycle(inv):
        # one realistic request: marshal, unmarshal, answer
        request = SoapEnvelope.request(inv.operation, inv.params)
        decoded = SoapEnvelope.decode(request.encode())
        body = f"{decoded.params['name']}:{decoded.params['count']}"
        response = SoapEnvelope.response(inv.operation, body)
        return SoapEnvelope.decode(response.encode()).result()
        yield  # pragma: no cover - generator shape, never reached

    def trivial(inv):
        return "ok"
        yield  # pragma: no cover

    def drive(gen):
        try:
            next(gen)
        except StopIteration as stop:
            return stop.value

    # the chain is transparent: same result with and without it
    assert drive(request_cycle(inv)) == drive(
        pipeline.run(inv, request_cycle))

    for _ in range(500):  # warm every path
        drive(trivial(inv))
        drive(pipeline.run(inv, trivial))
        drive(request_cycle(inv))

    bare = _best_of(lambda: drive(trivial(inv)), n=5000)
    framed = _best_of(lambda: drive(pipeline.run(inv, trivial)), n=5000)
    cycle = _best_of(lambda: drive(request_cycle(inv)), n=2000)

    chain_cost = framed - bare
    overhead = chain_cost / cycle
    print(f"\npipeline framing {chain_cost * 1e6:.2f} us over a "
          f"{cycle * 1e6:.2f} us request cycle: {overhead:.2%}")
    assert overhead < 0.05, (
        f"pipeline adds {overhead:.1%} per request (budget: 5%)")
