"""Unit tests for the structured event bus."""

import pytest

from repro.simkernel.kernel import Simulator
from repro.telemetry.events import EventBus, bus


def test_emit_records_time_kind_and_fields():
    sim = Simulator(seed=0)
    b = bus(sim)

    def proc():
        yield sim.timeout(2.5)
        b.emit("gram.submit", layer="grid", request_id="req-000001",
               site="anl", job_id="j1")

    sim.run(until=sim.process(proc()))
    (ev,) = b.events("gram.submit")
    assert ev.ts == 2.5
    assert ev.layer == "grid"
    assert ev.request_id == "req-000001"
    assert ev.get("site") == "anl"
    assert ev.get("missing", "dflt") == "dflt"
    assert ev.get("job_id") == "j1"


def test_bus_is_per_simulator_singleton():
    sim_a, sim_b = Simulator(seed=0), Simulator(seed=0)
    assert bus(sim_a) is bus(sim_a)
    assert bus(sim_a) is not bus(sim_b)
    bus(sim_a).emit("x")
    assert len(bus(sim_b)) == 0


def test_filters_by_kind_layer_and_request_id():
    sim = Simulator(seed=0)
    b = bus(sim)
    b.emit("a.one", layer="ws", request_id="r1")
    b.emit("a.one", layer="ws", request_id="r2")
    b.emit("b.two", layer="grid", request_id="r1")
    assert len(b.events("a.one")) == 2
    assert len(b.events(layer="grid")) == 1
    assert len(b.events(request_id="r1")) == 2
    assert len(b.events("a.one", request_id="r2")) == 1


def test_first_matches_on_fields():
    sim = Simulator(seed=0)
    b = bus(sim)
    b.emit("sched.start", job_id="j1", waited=1.0)
    b.emit("sched.start", job_id="j2", waited=2.0)
    assert b.first("sched.start", job_id="j2").get("waited") == 2.0
    assert b.first("sched.start", job_id="j9") is None
    assert b.first("nope") is None


def test_ring_eviction_keeps_exact_counts():
    sim = Simulator(seed=0)
    b = EventBus(sim, capacity=4)
    for i in range(10):
        b.emit("tick", i=i)
    assert len(b) == 4  # ring holds only the newest
    assert [ev.get("i") for ev in b] == [6, 7, 8, 9]
    assert b.counts() == {"tick": 10}  # counters survive eviction
    assert b.emitted == 10


def test_subscribe_and_unsubscribe():
    sim = Simulator(seed=0)
    b = bus(sim)
    seen = []
    unsub = b.subscribe(lambda ev: seen.append(ev.kind), kinds=["a"])
    b.emit("a")
    b.emit("b")  # filtered out
    assert seen == ["a"]
    unsub()
    b.emit("a")
    assert seen == ["a"]


def test_emission_is_observationally_pure():
    """Emitting must not schedule anything on the simulator."""
    sim = Simulator(seed=0)
    b = bus(sim)
    before = sim.now
    for _ in range(100):
        b.emit("noop", layer="test")
    assert sim.now == before
    # Nothing to run: the queue gained no events from emission.
    sim.run()
    assert sim.now == before


def test_ring_eviction_with_subscriber_attached_mid_run():
    """A late subscriber sees every future event, eviction or not.

    The control tower attaches after warm-up traffic has already
    rolled through (and possibly out of) the ring; subscribers are a
    delivery path, not a ring view, so eviction of history must not
    cost the late-comer a single future event.
    """
    sim = Simulator(seed=0)
    b = EventBus(sim, capacity=4)
    for i in range(6):  # 0,1 already evicted when we subscribe
        b.emit("tick", i=i)
    seen = []
    unsub = b.subscribe(lambda ev: seen.append(ev.get("i")), kinds=["tick"])
    for i in range(6, 16):
        b.emit("tick", i=i)
    # Delivered exactly once each, in order, across 3 ring generations.
    assert seen == list(range(6, 16))
    # The ring itself kept only the newest 4; counters stayed exact.
    assert [ev.get("i") for ev in b] == [12, 13, 14, 15]
    assert b.counts() == {"tick": 16}
    unsub()
    b.emit("tick", i=99)
    assert seen[-1] == 15


def test_default_ring_is_a_flight_recorder_that_counts_its_drops():
    sim = Simulator(seed=0)
    b = bus(sim)
    for i in range(10_000):
        b.emit("tick" if i % 2 else "tock", i=i)
    assert len(b) == 4096
    assert b.dropped == 5904
    assert b.counts() == {"tick": 5000, "tock": 5000}
    assert [ev.get("i") for ev in b][0] == 5904


def test_recorder_keeps_its_kinds_after_the_ring_evicted_them():
    sim = Simulator(seed=0)
    b = EventBus(sim, capacity=4)
    rec = b.record("sched.submit", "sched.finish")
    for i in range(10):
        b.emit("sched.submit", job_id=f"j{i}")
        b.emit("noise")
        b.emit("sched.finish", job_id=f"j{i}")
    assert b.first("sched.submit", job_id="j0") is None  # evicted
    assert len(rec.events()) == 20
    assert rec.first("sched.submit", job_id="j0").get("job_id") == "j0"
    assert [ev.get("job_id") for ev in rec.events("sched.finish")] == \
        [f"j{i}" for i in range(10)]
    assert [ev.kind for ev in rec.events()][:2] == ["sched.submit",
                                                    "sched.finish"]


def test_recorder_answers_as_the_ring_on_a_run_it_holds():
    sim = Simulator(seed=0)
    b = bus(sim)
    rec = b.record("a.one", "sched.start")
    b.emit("a.one", layer="ws", request_id="r1")
    b.emit("sched.start", layer="grid", request_id="r1", job_id="j1")
    b.emit("b.two", layer="grid", request_id="r1")
    b.emit("a.one", layer="ws", request_id="r2")
    b.emit("sched.start", layer="grid", request_id="r2", job_id="j2")
    for query in ({"kind": "a.one"}, {"kind": "a.one", "request_id": "r2"},
                  {"kind": "sched.start", "layer": "grid"}):
        assert rec.events(**query) == b.events(**query)
    for filters in ({"job_id": "j2"}, {"job_id": "j9"}, {}):
        assert rec.first("sched.start", **filters) is \
            b.first("sched.start", **filters)
    with pytest.raises(ValueError):
        rec.events("b.two")  # not recorded: an error, not an empty list


def test_recorder_close_stops_recording():
    sim = Simulator(seed=0)
    b = bus(sim)
    rec = b.record("tick")
    b.emit("tick", i=0)
    rec.close()
    b.emit("tick", i=1)
    assert [ev.get("i") for ev in rec.events("tick")] == [0]
    assert len(b) == 2
