"""A hardware operation is a completion event, not a process.

The generator-process ``xfer``/``op`` that ``Network.transfer`` and
``Disk.read``/``write`` used to wrap around every operation is kept here
as the reference implementation.  The property below holds the
completion-event chain to it on everything a caller can observe —
completion instants, values, order and byte counters — and the budget
tests pin what one operation costs the kernel.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HardwareError
from repro.hardware import Disk, Network
from repro.simkernel import Simulator
from repro.simkernel.process import Process


# -- the reference: one generator process per operation --------------------

def reference_transfer(net, src, dst, nbytes, label=""):
    """``Network.transfer`` as a process wrapped around timeout + flow."""
    if nbytes < 0:
        raise HardwareError("negative transfer size")
    sim = net.sim
    path = net.route(src, dst)

    def xfer():
        start = sim.now
        if not path:  # local copy: no network involved
            yield sim.timeout(0)
            return 0.0
        total_latency = sum(l.latency for l in path)
        if total_latency > 0:
            yield sim.timeout(total_latency)
        bottleneck = min(path, key=lambda l: (l.bandwidth, l.name))
        yield bottleneck.server.submit(
            nbytes, tags=(f"in:{dst}", f"out:{src}"))
        return sim.now - start

    pname = f"xfer:{src}->{dst}" + (f":{label}" if label else "")
    return sim.process(xfer(), name=pname)


def reference_disk_op(disk, nbytes, direction, log):
    """``Disk.read``/``write`` as a process (capacity check left out:
    the property uses unbounded disks), logging to the open *log*."""
    sim = disk.sim
    if direction == "write":
        disk.used_bytes += nbytes
    log.append((sim.now, direction, nbytes))

    def op():
        start = sim.now
        if disk.access_latency > 0:
            yield sim.timeout(disk.access_latency)
        yield disk._server.submit(nbytes, tags=(direction,))
        return sim.now - start

    return sim.process(op(), name=f"{disk.name}:{direction}")


# -- the property ----------------------------------------------------------

HOSTS = ("a", "b", "c", "d")
#: Off the arrival grid, so a sample never ties with an arrival.
SAMPLE_TIMES = (0.0437, 0.3011, 1.7093, 9.1301)

_sizes = st.sampled_from([0, 1, 512, 4096, 65536, 1_000_000])
_arrivals = st.sampled_from([0.0, 0.0, 0.001, 0.25, 0.25, 0.5, 1.0, 3.0])
_transfers = st.tuples(
    st.just("xfer"),
    # a->b and c->b share the sw<->b bottleneck, c->d is disjoint,
    # a->a is a local copy that touches no link.
    st.sampled_from([("a", "b"), ("c", "b"), ("b", "a"), ("c", "d"),
                     ("d", "c"), ("a", "a")]),
    _sizes)
_disk_ops = st.tuples(st.just("disk"), st.sampled_from(["read", "write"]),
                      _sizes)
_ops = st.lists(st.tuples(_arrivals, st.one_of(_transfers, _disk_ops),
                          st.booleans()),   # chain a follow-up on completion
                min_size=1, max_size=14)


def _world(link_latency, disk_latency):
    sim = Simulator()
    net = Network(sim)
    net.connect("a", "sw", bandwidth=1e6, latency=link_latency)
    net.connect("c", "sw", bandwidth=1e6, latency=link_latency)
    net.connect("sw", "b", bandwidth=2e5, latency=link_latency)
    net.connect("c", "d", bandwidth=5e5)
    disk = Disk(sim, bandwidth=4e5, access_latency=disk_latency, name="d0")
    return sim, net, disk


def _observe(ops, link_latency, disk_latency, reference):
    """Run *ops*; return (completions in order, sampled counters)."""
    sim, net, disk = _world(link_latency, disk_latency)
    log = disk.record()

    def issue(op):
        if op[0] == "xfer":
            _, (src, dst), nbytes = op
            if reference:
                return reference_transfer(net, src, dst, nbytes, "p")
            return net.transfer(src, dst, nbytes, label="p")
        _, direction, nbytes = op
        if reference:
            return reference_disk_op(disk, nbytes, direction, log)
        return getattr(disk, direction)(nbytes)

    completions = []

    def start(index, op, chain):
        def completed(event):
            completions.append((index, sim.now, event.value))
            if chain:  # the same operation again, back to back
                start(index + 100, op, False)
        issue(op).add_callback(completed)

    for index, (at, op, chain) in enumerate(ops):
        sim.timeout(at).add_callback(
            lambda _e, index=index, op=op, chain=chain:
            start(index, op, chain))

    samples = []

    def sample(_event=None):
        samples.append(tuple(
            [net.bytes_in(h) for h in HOSTS]
            + [net.bytes_out(h) for h in HOSTS]
            + [disk.bytes_written(), disk.bytes_read(), disk.used_bytes]))

    for at in SAMPLE_TIMES:
        sim.timeout(at).add_callback(sample)
    sim.run()
    sample()
    return completions, samples, log


@settings(max_examples=120, deadline=None)
@given(_ops, st.sampled_from([0.0, 0.0005]), st.sampled_from([0.0, 0.005]))
def test_completion_events_match_the_process_reference(ops, link_latency,
                                                       disk_latency):
    new = _observe(ops, link_latency, disk_latency, reference=False)
    old = _observe(ops, link_latency, disk_latency, reference=True)
    assert new[0] == old[0]  # same order, same instants, same values
    assert new[1] == old[1]  # same byte counters, mid-flight and final
    assert new[2] == old[2]
    assert len(new[0]) == len(ops) + sum(1 for _, _, chain in ops if chain)


def test_failures_are_still_synchronous():
    sim, net, _ = _world(0.0005, 0.005)
    small = Disk(sim, bandwidth=1e6, capacity_bytes=100.0, name="small")
    log = small.record()
    queued = sim.queued_events
    with pytest.raises(HardwareError, match="negative transfer size"):
        net.transfer("a", "b", -1)
    with pytest.raises(HardwareError, match="unknown host"):
        net.transfer("a", "nowhere", 10)
    with pytest.raises(HardwareError, match="negative write size"):
        small.write(-1)
    with pytest.raises(HardwareError, match="negative read size"):
        small.read(-1)
    with pytest.raises(HardwareError, match="disk full"):
        small.write(101.0)
    assert sim.queued_events == queued  # nothing was left on the queue
    assert small.used_bytes == 0.0 and log == []


# -- what one operation costs the kernel -----------------------------------

def _back_to_back(sim, make_op, n):
    def driver():
        for _ in range(n):
            yield make_op()
    sim.run(until=sim.process(driver()))
    return sim.events_processed - 2  # minus the driver's start and end


@pytest.mark.parametrize("latency, per_op, per_process",
                         [(0.0005, 3, 5), (0.0, 3, 4)],
                         ids=["latency", "no-latency"])
def test_event_budget_per_transfer_and_disk_op(latency, per_op,
                                               per_process):
    # The latency timeout armed on creation (or, without latency, the
    # start slot), the flow's completion timer, the completion event:
    # per_op events each.  The process form pays its start slot, the
    # latency timeout when there is latency, and its own completion on
    # top of the flow's.
    n = 50
    sim, net, _ = _world(latency, latency)
    assert _back_to_back(
        sim, lambda: net.transfer("a", "b", 4096), n) == per_op * n
    sim, _, disk = _world(latency, latency)
    assert _back_to_back(sim, lambda: disk.write(4096), n) == per_op * n
    sim, net, _ = _world(latency, latency)
    assert _back_to_back(
        sim, lambda: reference_transfer(net, "a", "b", 4096), n
    ) == per_process * n


def test_local_and_empty_operations_cost_two_events():
    sim, net, _ = _world(0.0, 0.0)
    # Start slot + completion: no flow, so no timer.
    assert _back_to_back(sim, lambda: net.transfer("a", "a", 4096), 10) == 20
    sim, net, _ = _world(0.0, 0.0)
    assert _back_to_back(sim, lambda: net.transfer("a", "b", 0), 10) == 20


def test_no_process_is_created(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a hardware operation started a process")

    monkeypatch.setattr(Simulator, "process", refuse)
    monkeypatch.setattr(Process, "__init__", refuse)
    sim, net, disk = _world(0.0005, 0.005)
    ops = [net.transfer("a", "b", 4096, label="x"),
           net.transfer("c", "b", 4096),
           net.transfer("a", "a", 4096),
           disk.write(4096), disk.read(4096)]
    assert not any(isinstance(op, Process) for op in ops)
    assert ops[0].name == "xfer:a->b:x" and ops[3].name == "d0:write"
    sim.run()
    assert all(op.processed and op.ok for op in ops)
    assert ops[2].value == 0.0
    assert ops[3].value == pytest.approx(0.005 + 2 * 4096 / 4e5)
