"""Unit tests for the DbManager facade (simulated-cost executable store)."""

import gc
import hashlib
import random
import tracemalloc
import weakref
import zlib

import pytest

from repro.db import DbManager
from repro.db.dbmanager import DbCostModel, DbTierConfig
from repro.errors import RecordNotFound, TransactionError
from repro.hardware import Host, Network
from repro.hardware.host import HostSpec
from repro.simkernel import Simulator
from repro.simkernel.process import Interrupt
from repro.units import KB, MB


def make_env(disk_bw=MB(50), tier=None):
    sim = Simulator()
    net = Network(sim)
    host = Host(sim, "appliance", net,
                HostSpec(cores=2, disk_bandwidth=disk_bw, disk_latency=0.0))
    return sim, host, DbManager(host, tier=tier)


def test_store_load_roundtrip():
    sim, host, mgr = make_env()
    payload = b"#!/bin/sh\necho hello\n" * 100

    def flow():
        yield mgr.store_executable("hello.sh", payload, description="greeter",
                                   params_spec="name:TEXT")
        exe = yield mgr.load_executable("hello.sh")
        return exe

    proc = sim.process(flow())
    exe = sim.run(until=proc)
    assert exe.payload == payload
    assert exe.description == "greeter"
    assert exe.params_spec == "name:TEXT"
    assert exe.size == len(payload)
    assert 0 < exe.compressed_size < len(payload)


def test_load_missing_raises():
    sim, host, mgr = make_env()

    def flow():
        yield mgr.load_executable("ghost")

    proc = sim.process(flow())
    with pytest.raises(RecordNotFound):
        sim.run(until=proc)


def test_store_overwrites_existing():
    sim, host, mgr = make_env()

    def flow():
        yield mgr.store_executable("x", b"version one")
        yield mgr.store_executable("x", b"version two")
        exe = yield mgr.load_executable("x")
        return exe

    proc = sim.process(flow())
    exe = sim.run(until=proc)
    assert exe.payload == b"version two"
    assert len(mgr.list_executables()) == 1


def test_delete_executable():
    sim, host, mgr = make_env()

    def flow():
        yield mgr.store_executable("x", b"data")
        first = yield mgr.delete_executable("x")
        second = yield mgr.delete_executable("x")
        return first, second

    proc = sim.process(flow())
    first, second = sim.run(until=proc)
    assert first is True
    assert second is False
    assert not mgr.has_executable("x")


def test_store_takes_simulated_time():
    sim, host, mgr = make_env(disk_bw=KB(10))
    payload = bytes(range(256)) * 4096  # ~1 MB, poorly compressible

    def flow():
        yield mgr.store_executable("big", payload)

    proc = sim.process(flow())
    sim.run(until=proc)
    assert sim.now > 0.1  # disk at 10 KB/s makes this clearly non-instant
    assert host.disk.bytes_written() > 0


def test_load_charges_cpu_for_decompression():
    sim, host, mgr = make_env()

    def flow():
        yield mgr.store_executable("x", b"a" * int(MB(2)))
        busy_before = host.cpu.busy_core_seconds()
        yield mgr.load_executable("x")
        return host.cpu.busy_core_seconds() - busy_before

    proc = sim.process(flow())
    cpu_used = sim.run(until=proc)
    expected = DbCostModel().decompress_cpu_per_mb * 2
    assert cpu_used >= expected * 0.9


def test_metadata_queries():
    sim, host, mgr = make_env()

    def flow():
        yield mgr.store_executable("a", b"xyz" * 1000, description="d")

    sim.run(until=sim.process(flow()))
    listing = mgr.list_executables()
    assert len(listing) == 1
    assert listing[0]["name"] == "a"
    assert "data" not in listing[0]
    sizes = mgr.executable_sizes("a")
    assert sizes["size"] == 3000
    assert sizes["compressed_size"] > 0
    assert mgr.has_executable("a")
    assert not mgr.has_executable("b")


def test_executable_sizes_missing_name_raises():
    sim, host, mgr = make_env()
    with pytest.raises(RecordNotFound):
        mgr.executable_sizes("ghost")


# ------------------------------------------------------------ tier: chunking

def test_chunked_fetch_bounds_residency_and_preserves_bytes():
    chunk = int(MB(1))
    sim, host, mgr = make_env(tier=DbTierConfig(chunk_bytes=chunk))
    payload = bytes(range(256)) * (int(MB(5)) // 256 + 13)  # ~5 MB, odd tail
    peaks = []

    def flow():
        yield mgr.store_executable("big", payload)
        mem_before = host.memory_used
        exe = yield mgr.load_executable("big")
        return exe, mem_before

    proc = sim.process(flow())
    exe, mem_before = sim.run(until=proc)
    # The data plane is intact: the reassembled bytes equal the stored.
    assert exe.payload == payload
    # Simulated residency peaked at <= 2 chunks, not the whole BLOB.
    assert host.memory_peak - mem_before <= 2 * chunk
    # Nothing leaked after the fetch.
    assert host.memory_used == mem_before


def test_chunked_fetch_pipelines_consumer():
    chunk = int(MB(1))
    sim, host, mgr = make_env(tier=DbTierConfig(chunk_bytes=chunk))
    payload = b"q" * int(MB(3))
    consumed = []

    def flow():
        yield mgr.store_executable("p", payload)

        def on_chunk(nbytes):
            consumed.append(nbytes)
            yield host.disk_write(nbytes)

        exe = yield mgr.load_executable("p", on_chunk=on_chunk)
        return exe

    exe = sim.run(until=sim.process(flow()))
    assert exe.payload == payload
    assert sum(consumed) == len(payload)
    assert len(consumed) == 3


def test_an_unwound_chunked_fetch_releases_its_resident_chunks():
    chunk = int(MB(1))
    sim, host, mgr = make_env(tier=DbTierConfig(chunk_bytes=chunk))
    sim.run(until=mgr.store_executable("big", b"q" * int(MB(5))))
    before = host.memory_used

    def on_chunk(nbytes):
        yield host.disk_write(nbytes)

    def reader():
        return (yield from mgr.load("big", on_chunk=on_chunk))

    proc = sim.process(reader())
    while host.memory_used - before < 2 * chunk:  # two chunks resident
        sim.step()
    proc.interrupt("crash")
    with pytest.raises(Interrupt):
        sim.run(until=proc)
    sim.run()
    assert host.memory_used == before
    assert mgr._chunk_gauge.current == 0


# ------------------------------------------------------------ tier: serialize

def test_serialized_reads_queue_behind_store():
    sim, host, mgr = make_env(tier=DbTierConfig(serialize=True))
    payload = b"z" * int(MB(4))
    order = []

    def seed_flow():
        yield mgr.store_executable("x", payload)

    sim.run(until=sim.process(seed_flow()))

    def writer():
        yield mgr.store_executable("x", payload)
        order.append("store-done")

    def reader():
        yield sim.timeout(0.001)  # arrive while the store holds the conn
        exe = yield mgr.load_executable("x")
        order.append("read-done")
        return exe

    w = sim.process(writer())
    r = sim.process(reader())
    sim.run(until=sim.all_of([w, r]))
    assert order == ["store-done", "read-done"]


def test_an_interrupted_queued_load_leaves_the_lock_queue():
    """A load queued behind a store and unwound there gives up its
    place: the store's release finds no dead waiter to hand the lock
    to, so the next store runs."""
    sim, host, mgr = make_env(tier=DbTierConfig(serialize=True))
    payload = b"z" * int(MB(4))
    sim.run(until=mgr.store_executable("x", payload))
    store = mgr.store_executable("x", payload)  # holds the connection
    load = mgr.load_executable("x")
    sim.run(until=sim.now + 0.001)
    assert len(mgr._lock_waiters) == 1
    load.interrupt("crash")
    with pytest.raises(Interrupt):
        sim.run(until=load)
    sim.run(until=store)
    assert not mgr._lock_held and mgr._lock_waiters == []
    exe = sim.run(until=mgr.store_executable("x", b"later"))
    assert exe.payload == b"later"


def test_a_load_unwound_as_the_lock_reaches_it_passes_the_lock_on():
    """Unwound in the frame the lock was handed to it, a load passes
    the lock to the next waiter instead of taking it to its grave."""
    sim, host, mgr = make_env(tier=DbTierConfig(serialize=True))
    sim.run(until=mgr.store_executable("x", b"z" * 1000))
    mgr._lock_held = True  # a writer holds the connection
    first, second = mgr.load_executable("x"), mgr.load_executable("x")
    sim.run(until=sim.now + 0.001)
    first.interrupt("crash")
    mgr._release_conn()  # the writer hands the lock to *first*
    with pytest.raises(Interrupt):
        sim.run(until=first)
    assert sim.run(until=second).name == "x"
    assert not mgr._lock_held and mgr._lock_waiters == []


def test_mvcc_reads_skip_the_lock():
    sim, host, mgr = make_env(tier=DbTierConfig(serialize=True, mvcc=True))
    payload = b"z" * int(MB(4))
    order = []

    def seed_flow():
        yield mgr.store_executable("x", payload)

    sim.run(until=sim.process(seed_flow()))

    def writer():
        yield mgr.store_executable("x", payload)
        order.append("store-done")

    def reader():
        yield sim.timeout(0.001)
        exe = yield mgr.load_executable("x")
        order.append("read-done")
        return exe

    w = sim.process(writer())
    r = sim.process(reader())
    sim.run(until=sim.all_of([w, r]))
    # The snapshot read finished under the in-flight store.
    assert order == ["read-done", "store-done"]
    assert mgr.db.stats["snapshot_reads"] > 0


def test_mvcc_read_inside_an_open_transaction_raises():
    """An MVCC read is a committed read only because no engine
    transaction is open when it runs; one that finds one refuses."""
    sim, host, mgr = make_env(tier=DbTierConfig(mvcc=True))
    sim.run(until=mgr.store_executable("x", b"committed"))
    mgr.db.begin()
    mgr.db.update_eq(mgr.TABLE, "name", "x", {"description": "open"})
    with pytest.raises(TransactionError, match="open engine transaction"):
        sim.run(until=mgr.load_executable("x"))
    mgr.db.rollback()
    assert sim.run(until=mgr.load_executable("x")).payload == b"committed"


def test_recover_from_crash_keeps_tier():
    tier = DbTierConfig(mvcc=True, chunk_bytes=int(MB(1)))
    sim, host, mgr = make_env(tier=tier)

    def flow():
        yield mgr.store_executable("x", b"payload bytes")

    sim.run(until=sim.process(flow()))
    recovered = mgr.recover_from_crash()
    assert recovered.tier is tier
    assert recovered.has_executable("x")


# ------------------------------------------------------- derive-once memo

def counted(monkeypatch):
    """Count every inflate and every SHA-256 made while the patch lives."""
    calls = {"inflate": 0, "sha256": 0}

    def counting(real, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(zlib, "decompress",
                        counting(zlib.decompress, "inflate"))
    monkeypatch.setattr(zlib, "decompressobj",
                        counting(zlib.decompressobj, "inflate"))
    monkeypatch.setattr(hashlib, "sha256",
                        counting(hashlib.sha256, "sha256"))
    return calls


def load(sim, mgr, name):
    return sim.run(until=mgr.load_executable(name))


def memo_holds(mgr, exe):
    """Is *exe* the executable the manager's memo holds for its name?"""
    return mgr._memo._entries.get(exe.name) is exe


@pytest.mark.parametrize("tier", [None, DbTierConfig(chunk_bytes=4096),
                                  DbTierConfig(mvcc=True)],
                         ids=["whole", "chunked", "mvcc"])
def test_third_load_of_a_version_inflates_and_hashes_nothing(
        monkeypatch, tier):
    sim, host, mgr = make_env(tier=tier)
    payload = bytes(range(256)) * 100
    want = hashlib.sha256(payload).hexdigest()
    sim.run(until=mgr.store_executable("x", payload))
    calls = counted(monkeypatch)
    t0, events = sim.now, sim.events_processed
    # Held since the store: the first load inflates nothing, and its
    # payload is the object the store was handed.
    first = load(sim, mgr, "x")
    cold = (sim.now - t0, sim.events_processed - events)
    assert calls == {"inflate": 0, "sha256": 0} and memo_holds(mgr, first)
    assert first.payload is payload
    second = load(sim, mgr, "x")
    # One executable per version: the digest is hashed when first asked.
    assert second is first and second.digest == want
    assert calls == {"inflate": 0, "sha256": 1}
    t0, events = sim.now, sim.events_processed
    third = load(sim, mgr, "x")
    # The simulated fetch is charged in full all the same.
    assert (sim.now - t0, sim.events_processed - events) == (
        pytest.approx(cold[0], rel=1e-9), cold[1])
    assert third is first and third.digest == want
    assert calls == {"inflate": 0, "sha256": 1}
    # A re-upload is a new version, even of the very same bytes: nothing
    # is served from the old one, and the metadata is the new row's.
    sim.run(until=mgr.store_executable("x", payload, description="again"))
    fourth = load(sim, mgr, "x")
    assert calls["inflate"] == 0
    assert fourth is not third and fourth.payload is payload
    assert fourth.description == "again" and fourth.stored_at > third.stored_at


def test_a_superseded_version_is_released_once_its_successor_is_fetched():
    sim, host, mgr = make_env()
    sim.run(until=mgr.store_executable("x", b"version one" * 100))
    old = weakref.ref(load(sim, mgr, "x"))
    assert memo_holds(mgr, old())
    sim.run(until=mgr.store_executable("x", b"version two" * 100))
    new = load(sim, mgr, "x")
    gc.collect()
    assert old() is None
    assert memo_holds(mgr, new) and new.payload == b"version two" * 100
    assert list(mgr._memo._entries) == ["x"]
    # A delete lets the last version go too.
    sim.run(until=mgr.delete_executable("x"))
    assert not mgr._memo._entries


def test_recovered_manager_starts_with_an_empty_memo(monkeypatch):
    sim, host, mgr = make_env()
    sim.run(until=mgr.store_executable("x", b"payload bytes" * 50))
    held = load(sim, mgr, "x")
    recovered = mgr.recover_from_crash()
    assert not recovered._memo._entries
    calls = counted(monkeypatch)
    exe = load(sim, recovered, "x")
    assert exe.payload == b"payload bytes" * 50 and exe is not held
    assert calls["inflate"] == 0 and memo_holds(recovered, exe)


def test_store_holds_a_copy_of_a_mutable_buffer(monkeypatch):
    sim, host, mgr = make_env()
    buffer = bytearray(b"version one" * 100)
    stored = sim.run(until=mgr.store_executable("x", buffer))
    buffer[:7] = b"mutated"
    calls = counted(monkeypatch)
    exe = load(sim, mgr, "x")
    assert exe is stored and calls["inflate"] == 0
    assert type(exe.payload) is bytes and exe.payload == b"version one" * 100


def test_executable_digest_hashes_only_a_version_it_does_not_hold(
        monkeypatch):
    sim, host, mgr = make_env()
    payload = b"payload bytes" * 50
    want = hashlib.sha256(payload).hexdigest()
    stored = sim.run(until=mgr.store_executable("x", payload))
    stored.digest = want     # what a publish that hashed it leaves
    recovered = mgr.recover_from_crash()
    calls = counted(monkeypatch)
    assert mgr.executable_digest("x") == want
    assert calls == {"inflate": 0, "sha256": 0}
    assert recovered.executable_digest("x") == want
    assert calls == {"inflate": 0, "sha256": 1}


# ------------------------------------------------- one copy of each version

def test_the_row_holds_the_very_object_the_store_was_handed():
    sim, host, mgr = make_env()
    payload = random.Random(3).randbytes(5000)
    stored = sim.run(until=mgr.store_executable("x", payload))
    row = mgr.db.get_by_pk(mgr.TABLE, "x")
    assert row["data"] is payload and stored.payload is payload
    # The simulated store still sized the compressed bytes.
    assert row["compressed_size"] == len(zlib.compress(payload, level=6))
    assert row["size"] == len(payload) == stored.size


def test_storing_fresh_payloads_holds_no_second_copy():
    sim, host, mgr = make_env()
    payloads = [random.Random(seed).randbytes(1 << 20) for seed in range(8)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i, payload in enumerate(payloads):
            sim.run(until=mgr.store_executable(f"x{i}", payload))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # Incompressible bytes: a kept zlib output would be ~8 MB here.
    assert grown < (1 << 20)


@pytest.mark.parametrize("tier", [None, DbTierConfig(chunk_bytes=int(MB(1))),
                                  DbTierConfig(mvcc=True)],
                         ids=["whole", "chunked", "mvcc"])
def test_a_large_version_is_fetched_without_inflating(monkeypatch, tier):
    sim, host, mgr = make_env(tier=tier)
    payload = bytes(40 << 20)
    sim.run(until=mgr.store_executable("big", payload))
    calls = counted(monkeypatch)
    fetched = [load(sim, mgr, "big") for _ in range(3)]
    assert all(exe.digest for exe in fetched)
    assert calls == {"inflate": 0, "sha256": 1}
    assert all(exe.payload is payload for exe in fetched)


@pytest.mark.parametrize("tier", [None, DbTierConfig(chunk_bytes=4096),
                                  DbTierConfig(mvcc=True)],
                         ids=["whole", "chunked", "mvcc"])
def test_a_recovered_manager_serves_equal_bytes_without_inflating(
        monkeypatch, tier):
    sim, host, mgr = make_env(tier=tier)
    payload = random.Random(5).randbytes(20000)
    sim.run(until=mgr.store_executable("x", payload))
    recovered = mgr.recover_from_crash()
    calls = counted(monkeypatch)
    first = load(sim, recovered, "x")
    assert first.payload == payload and load(sim, recovered, "x") is first
    assert recovered.executable_digest("x") == first.digest
    assert calls == {"inflate": 0, "sha256": 1}
