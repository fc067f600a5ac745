"""Unit tests for the DbManager facade (simulated-cost executable store)."""

import hashlib
import random
import sys
import zlib

import pytest

from repro.db import DbManager, dbmanager
from repro.db.dbmanager import DbCostModel, DbTierConfig
from repro.errors import RecordNotFound
from repro.hardware import Host, Network
from repro.hardware.host import HostSpec
from repro.simkernel import Simulator
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


def test_recover_from_crash_keeps_tier():
    tier = DbTierConfig(mvcc=True, chunk_bytes=int(MB(1)))
    sim, host, mgr = make_env(tier=tier)

    def flow():
        yield mgr.store_executable("x", b"payload bytes")

    sim.run(until=sim.process(flow()))
    recovered = mgr.recover_from_crash()
    assert recovered.tier is tier
    assert recovered.db.mvcc
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


def held_elsewhere(exe):
    """Does anything but *exe* itself hold a reference to its payload?
    (Ask in a statement of its own: a rewritten ``assert`` keeps the
    values of its sub-expressions alive while it evaluates the rest.)"""
    control = bytes(bytearray(b"nobody else holds this"))
    return sys.getrefcount(exe.payload) > sys.getrefcount(control)


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
    first = load(sim, mgr, "x")
    cold = (sim.now - t0, sim.events_processed - events)
    assert first.digest == want and not held_elsewhere(first)
    second = load(sim, mgr, "x")  # admitted here: inflated and hashed once
    assert second.digest == want and second.payload is not first.payload
    assert calls == {"inflate": 2, "sha256": 2}
    t0, events = sim.now, sim.events_processed
    third = load(sim, mgr, "x")
    # The simulated fetch is charged in full all the same.
    assert (sim.now - t0, sim.events_processed - events) == (
        pytest.approx(cold[0], rel=1e-9), cold[1])
    assert calls == {"inflate": 2, "sha256": 2}
    assert third.payload is second.payload and third.digest == want
    assert held_elsewhere(third)
    # A re-upload is a new version, even of the very same bytes: nothing
    # is served from the old one, and the metadata is the new row's.
    sim.run(until=mgr.store_executable("x", payload, description="again"))
    fourth = load(sim, mgr, "x")
    assert calls["inflate"] == 3
    assert fourth.payload == payload and fourth.payload is not third.payload
    assert fourth.description == "again" and fourth.stored_at > third.stored_at


def test_memo_holds_neither_one_shot_nor_over_budget_blobs(monkeypatch):
    monkeypatch.setattr(dbmanager, "_MEMO_BUDGET", 4096)
    sim, host, mgr = make_env()
    noise = random.Random(7).randbytes(8192)   # compressed alone > budget
    zeros = bytes(65536)                       # ~100 B compressed, 64 KB inflated
    small_a = b"a" * 3000                      # each fits; both do not
    small_b = b"b" * 3000
    for name, payload in (("noise", noise), ("zeros", zeros),
                          ("a", small_a), ("b", small_b), ("once", b"1" * 500)):
        sim.run(until=mgr.store_executable(name, payload))
    calls = counted(monkeypatch)
    assert not held_elsewhere(load(sim, mgr, "once"))
    for name, payload in (("noise", noise), ("zeros", zeros)):
        for _ in range(3):
            exe = load(sim, mgr, name)
            assert exe.payload == payload
            assert not held_elsewhere(exe)
    assert calls["inflate"] == 7
    # Least recently fetched goes first: admitting b pushes a out.
    for name in ("a", "a", "a", "b", "b", "b"):
        load(sim, mgr, name)
    assert calls["inflate"] == 7 + 2 + 2
    assert held_elsewhere(load(sim, mgr, "b")) and calls["inflate"] == 11
    assert load(sim, mgr, "a").payload == small_a and calls["inflate"] == 12


def test_recovered_manager_starts_with_an_empty_memo(monkeypatch):
    sim, host, mgr = make_env()
    sim.run(until=mgr.store_executable("x", b"payload bytes" * 50))
    load(sim, mgr, "x"), load(sim, mgr, "x")
    recovered = mgr.recover_from_crash()
    calls = counted(monkeypatch)
    exe = load(sim, recovered, "x")
    assert exe.payload == b"payload bytes" * 50
    assert calls["inflate"] == 1 and not held_elsewhere(exe)
