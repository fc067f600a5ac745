"""await_waiter exception routing + poll_until edge cases."""

import gc

import pytest

from repro.core.watchdog import await_waiter, poll_until
from repro.errors import WatchdogTimeout
from repro.simkernel import Simulator
from repro.simkernel.process import Interrupt


def drive(sim, op):
    """Run the generator *op* as a process to its end; its value."""
    return sim.run(until=sim.process(op))


def instant(sim, value):
    """One zero-time poll round answering *value*."""
    return (yield sim.timeout(0.0, value=value))


# ---------------------------------------------------------- await_waiter

def wait_on(sim, waiter, timeout=10.0, cancelled=None):
    """await_waiter over *waiter*, noting each waiter it cancels."""
    return await_waiter(
        sim, lambda: waiter,
        lambda ev: cancelled.append(ev) if cancelled is not None else None,
        timeout, "job")


def fire_at(sim, waiter, delay, exc=None):
    """Start a process that fires *waiter* after *delay*."""
    def op():
        yield sim.timeout(delay)
        if exc is None:
            waiter.succeed("done")
        else:
            waiter.fail(exc)

    return sim.process(op())


def test_victim_finishing_in_time_returns_its_value():
    sim = Simulator()
    waiter = sim.event()
    fire_at(sim, waiter, 3.0)
    assert drive(sim, wait_on(sim, waiter)) == "done"
    assert sim.now == 3.0


def test_slow_victim_times_out():
    sim = Simulator()
    waiter, cancelled = sim.event(), []
    with pytest.raises(WatchdogTimeout, match=r"job gave up \(10s\)"):
        drive(sim, wait_on(sim, waiter, cancelled=cancelled))
    assert sim.now == 10.0
    assert cancelled == [waiter]
    # A late failure of the abandoned waiter is defused, not re-raised.
    waiter.fail(RuntimeError("late"))
    sim.run()


def test_waiter_failure_propagates_not_timeout():
    sim = Simulator()
    waiter = sim.event()
    fire_at(sim, waiter, 2.0, ValueError("genuinely broken"))
    with pytest.raises(ValueError, match="genuinely broken"):
        drive(sim, wait_on(sim, waiter))


def test_waiter_failing_at_the_deadline_instant_propagates():
    sim = Simulator()
    waiter = sim.event()
    # Fails at exactly the deadline instant (photo finish).
    fire_at(sim, waiter, 10.0, ValueError("same-instant failure"))
    with pytest.raises(ValueError, match="same-instant"):
        drive(sim, wait_on(sim, waiter))


def test_an_interrupted_wait_cancels_and_defuses_its_waiter():
    """The wait runs in its caller's process: an interrupt of that
    process unwinds it, and the waiter is detached from its source at
    once instead of at the deadline."""
    sim = Simulator()
    waiter, cancelled = sim.event(), []
    caller = sim.process(wait_on(sim, waiter, timeout=60.0,
                                 cancelled=cancelled))

    def crash():
        yield sim.timeout(5.0)
        caller.interrupt("crash")

    sim.process(crash())
    with pytest.raises(Interrupt):
        sim.run(until=caller)
    assert sim.now == 5.0 and cancelled == [waiter]
    waiter.fail(RuntimeError("late"))
    sim.run()


def test_a_fired_waiter_leaves_its_deadline_bare():
    """A six-hour-style deadline leaves the queue once its waiter fires:
    100 fired waits leave at most one queued deadline, not 100."""
    sim = Simulator()
    for i in range(100):
        waiter = sim.event()
        fire_at(sim, waiter, 1.0)
        assert drive(sim, wait_on(sim, waiter, timeout=6 * 3600.0)) == "done"
    assert len(sim._heap) <= 1 and sim.now == 100.0
    sim.run()
    assert sim.now == 100.0


def test_an_interrupted_wait_takes_its_deadline_off_the_queue():
    sim = Simulator()
    waiter, cancelled = sim.event(), []
    proc = sim.process(wait_on(sim, waiter, timeout=6 * 3600.0,
                               cancelled=cancelled))
    sim.run(until=sim.timeout(2.0))
    proc.interrupt("crash")
    with pytest.raises(Interrupt):
        sim.run(until=proc)
    assert cancelled == [waiter] and sim._heap == []


def test_an_interrupted_wait_leaves_no_reference_cycle():
    """Unwound by an interrupt, the wait unhooks its condition from the
    waiter and the deadline: what it leaves is freed by reference
    counting, and the cyclic collector finds nothing."""
    gc.collect()
    gc.disable()
    try:
        sim = Simulator()

        def parked():
            try:
                yield from await_waiter(sim, sim.event, lambda _ev: None,
                                        60.0, "job")
            except Interrupt:
                return "interrupted"

        caller = sim.process(parked())
        sim.run(until=sim.timeout(5.0))
        caller.interrupt("crash")
        assert sim.run(until=caller) == "interrupted"
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cancelling_a_timer_keeps_the_order_of_the_rest():
    sim = Simulator()
    fired = []
    timers = [sim.timeout(delay) for delay in (3.0, 1.0, 2.0, 1.0, 5.0)]
    for i, timer in enumerate(timers):
        timer.add_callback(lambda ev, i=i: fired.append(i))
    sim.cancel(timers[1])
    sim.cancel(timers[1])             # a second cancel is a no-op
    sim.run(until=timers[2])
    sim.cancel(timers[2])             # already dispatched: left alone
    sim.run()
    assert fired == [3, 2, 0, 4] and sim.now == 5.0


def test_await_waiter_timeout_must_be_positive():
    sim = Simulator()
    with pytest.raises(ValueError, match="timeout"):
        drive(sim, wait_on(sim, sim.event(), timeout=0.0))


# ---------------------------------------------------------------- poll_until

def test_accept_on_first_poll_takes_zero_time():
    sim = Simulator()
    result = drive(sim, poll_until(
        sim,
        poll_factory=lambda: instant(sim, "ready"),
        accept=lambda r: True,
        interval=5.0, timeout=60.0))
    assert result == ("ready", 1)
    assert sim.now == 0.0            # no interval sleep was taken


def test_accept_exactly_at_the_deadline_boundary_wins():
    sim = Simulator()
    result = drive(sim, poll_until(
        sim,
        poll_factory=lambda: instant(sim, sim.now),
        accept=lambda t: t >= 10.0,
        interval=5.0, timeout=10.0))
    # Polls at t=0, 5, 10; the boundary poll is accepted, not timed out.
    assert result == (10.0, 3)


def test_timeout_exactly_at_poll_boundary_gives_up_after_that_poll():
    sim = Simulator()
    with pytest.raises(WatchdogTimeout, match="3 polls"):
        drive(sim, poll_until(
            sim,
            poll_factory=lambda: instant(sim, "no"),
            accept=lambda r: False,
            interval=5.0, timeout=10.0))
    assert sim.now == 10.0           # no extra interval past the deadline


def test_failing_poll_itself_propagates():
    sim = Simulator()

    def broken_poll():
        yield sim.timeout(1.0)
        raise ConnectionError("poll target gone")

    with pytest.raises(ConnectionError, match="target gone"):
        drive(sim, poll_until(
            sim,
            poll_factory=broken_poll,
            accept=lambda r: True,
            interval=5.0, timeout=60.0))


def test_interval_must_be_positive():
    sim = Simulator()
    with pytest.raises(ValueError, match="interval"):
        drive(sim, poll_until(sim, poll_factory=lambda: instant(sim, None),
                              accept=lambda r: True, interval=0.0,
                              timeout=10.0))
