"""Unit tests for the fair-share capacity server."""

import pytest

from repro.errors import HardwareError
from repro.hardware.fairshare import FairShareServer
from repro.simkernel import Simulator


def test_single_flow_full_capacity():
    sim = Simulator()
    srv = FairShareServer(sim, capacity=100.0)
    done = srv.submit(500.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(5.0)


def test_two_equal_flows_share_capacity():
    sim = Simulator()
    srv = FairShareServer(sim, capacity=100.0)
    a = srv.submit(500.0)
    b = srv.submit(500.0)
    sim.run()
    # Each gets 50 units/s, so both finish at t=10.
    assert a.value == pytest.approx(10.0)
    assert b.value == pytest.approx(10.0)


def test_late_arrival_slows_first_flow():
    sim = Simulator()
    srv = FairShareServer(sim, capacity=100.0)
    first = srv.submit(1000.0)  # alone: 10 s

    def late():
        yield sim.timeout(5.0)
        done = srv.submit(250.0)
        yield done

    sim.process(late())
    sim.run()
    # First flow: 500 done by t=5 (alone at 100/s). Then shared 50/s.
    # Second finishes at 5 + 250/50 = 10; first then has 250 left at
    # 100/s -> finishes at 12.5.
    assert first.value == pytest.approx(12.5)


def test_per_flow_cap_limits_single_flow():
    sim = Simulator()
    srv = FairShareServer(sim, capacity=4.0, per_flow_cap=1.0)
    done = srv.submit(10.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(10.0)  # capped at 1/s despite 4 capacity


def test_per_flow_cap_allows_parallelism():
    sim = Simulator()
    srv = FairShareServer(sim, capacity=4.0, per_flow_cap=1.0)
    events = [srv.submit(10.0) for _ in range(4)]
    sim.run()
    for ev in events:
        assert ev.value == pytest.approx(10.0)


def test_oversubscription_divides_evenly():
    sim = Simulator()
    srv = FairShareServer(sim, capacity=2.0, per_flow_cap=1.0)
    events = [srv.submit(10.0) for _ in range(4)]
    sim.run()
    # 4 flows on 2 capacity -> 0.5/s each -> 20 s.
    for ev in events:
        assert ev.value == pytest.approx(20.0)


def test_zero_work_completes_instantly():
    sim = Simulator()
    srv = FairShareServer(sim, capacity=10.0)
    done = srv.submit(0.0)
    sim.run()
    assert done.value == 0.0
    assert sim.now == 0.0


def test_negative_work_rejected():
    sim = Simulator()
    srv = FairShareServer(sim, capacity=10.0)
    with pytest.raises(HardwareError):
        srv.submit(-1.0)


def test_invalid_capacity_rejected():
    sim = Simulator()
    with pytest.raises(HardwareError):
        FairShareServer(sim, capacity=0)
    with pytest.raises(HardwareError):
        FairShareServer(sim, capacity=10, per_flow_cap=0)


def test_cumulative_tracks_partial_progress():
    sim = Simulator()
    srv = FairShareServer(sim, capacity=100.0)
    srv.submit(1000.0, tags=("all", "rx"))
    sim.run(until=3.0)
    assert srv.cumulative("rx") == pytest.approx(300.0)
    assert srv.cumulative("all") == pytest.approx(300.0)
    assert srv.cumulative("other") == 0.0


def test_cumulative_multi_tag_attribution():
    sim = Simulator()
    srv = FairShareServer(sim, capacity=100.0)
    srv.submit(200.0, tags=("in:a", "out:b"))
    srv.submit(200.0, tags=("in:a", "out:c"))
    sim.run()
    assert srv.cumulative("in:a") == pytest.approx(400.0)
    assert srv.cumulative("out:b") == pytest.approx(200.0)
    assert srv.cumulative("out:c") == pytest.approx(200.0)


def test_work_integral_equals_submitted_work():
    sim = Simulator()
    srv = FairShareServer(sim, capacity=7.0)
    total = 0.0
    for w in (13.0, 5.5, 100.0, 0.25):
        srv.submit(w)
        total += w
    sim.run()
    assert srv.work_integral() == pytest.approx(total)


def test_large_flow_no_stall():
    """Floating-point residue on multi-GB flows must not stall the server."""
    sim = Simulator()
    srv = FairShareServer(sim, capacity=1e8)
    done = srv.submit(5e9)
    sim.run(until=done)
    assert sim.now == pytest.approx(50.0)


def test_infinite_capacity():
    sim = Simulator()
    srv = FairShareServer(sim, capacity=float("inf"), per_flow_cap=10.0)
    done = srv.submit(100.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(10.0)


@pytest.mark.parametrize("stagger", [0.0, 0.25], ids=["burst", "staggered"])
def test_overlapping_submits_arm_one_timer_each(stagger):
    # Event budget for N overlapping flows of distinct sizes: N timers
    # armed by the submits, N - 1 re-armed by the completions that leave
    # flows behind, N done events.  submit() used to arm two timers
    # whenever a flow was already active (settle re-armed, then submit
    # re-armed again), sending N - 1 dead timers through the heap.
    n = 8
    sim = Simulator()
    srv = FairShareServer(sim, capacity=100.0)
    done = []
    for i in range(n):
        arrival = sim.timeout(i * stagger)
        arrival.add_callback(
            lambda _event, work=1000.0 * (i + 1): done.append(
                srv.submit(work)))
    sim.run()
    assert all(flow.triggered for flow in done) and len(done) == n
    assert sim.events_processed - n == 3 * n - 1  # minus the arrivals
    assert srv.work_integral() == pytest.approx(
        sum(1000.0 * (i + 1) for i in range(n)))
