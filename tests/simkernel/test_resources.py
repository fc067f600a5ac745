"""Unit tests for Resource."""

import pytest

from repro.errors import SimulationError
from repro.simkernel import Resource, Simulator


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    log = []

    def worker(tag, hold):
        req = res.request()
        yield req
        log.append((tag, "start", sim.now))
        yield sim.timeout(hold)
        res.release(req)
        log.append((tag, "end", sim.now))

    for i in range(4):
        sim.process(worker(i, hold=10))
    sim.run()
    starts = {tag: t for tag, phase, t in log if phase == "start"}
    assert starts == {0: 0.0, 1: 0.0, 2: 10.0, 3: 10.0}


def test_resource_priority_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def holder():
        req = res.request()
        yield req
        yield sim.timeout(5)
        res.release(req)

    def claimant(tag, prio):
        yield sim.timeout(1)  # let the holder grab the slot first
        req = res.request(priority=prio)
        yield req
        order.append(tag)
        res.release(req)

    sim.process(holder())
    sim.process(claimant("low", prio=5))
    sim.process(claimant("high", prio=0))
    sim.run()
    assert order == ["high", "low"]


def test_resource_context_manager_releases():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker():
        with res.request() as req:
            yield req
            yield sim.timeout(1)
        return res.count

    proc = sim.process(worker())
    assert sim.run(until=proc) == 0


def test_queued_request_can_be_withdrawn():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    held = res.request()
    assert held.triggered
    queued = res.request()
    assert not queued.triggered
    res.release(queued)  # withdraw
    assert queued not in res.queue
    res.release(held)
    assert res.count == 0


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)
