"""Watchdog.guard exception routing + poll_until edge cases."""

import pytest

from repro.core.watchdog import Watchdog, poll_until
from repro.errors import WatchdogTimeout
from repro.simkernel import Simulator
from repro.simkernel.process import Interrupt


def drive(sim, proc):
    return sim.run(until=proc)


# ---------------------------------------------------------------- guard

def test_victim_finishing_in_time_returns_its_value():
    sim = Simulator()
    dog = Watchdog(sim, timeout=10.0)

    def victim():
        yield sim.timeout(3.0)
        return "done"

    assert drive(sim, dog.guard(sim.process(victim()))) == "done"
    assert dog.timeouts_fired == 0


def test_slow_victim_times_out():
    sim = Simulator()
    dog = Watchdog(sim, timeout=10.0)

    def victim():
        yield sim.timeout(100.0)

    with pytest.raises(WatchdogTimeout, match="exceeded 10s"):
        drive(sim, dog.guard(sim.process(victim()), label="slow job"))
    assert dog.timeouts_fired == 1
    assert sim.now == 10.0          # did not wait out the full sleep


def test_victim_genuine_error_propagates_not_timeout():
    sim = Simulator()
    dog = Watchdog(sim, timeout=10.0)

    def victim():
        yield sim.timeout(2.0)
        raise ValueError("genuinely broken")

    with pytest.raises(ValueError, match="genuinely broken"):
        drive(sim, dog.guard(sim.process(victim())))
    assert dog.timeouts_fired == 0


def test_error_while_handling_interrupt_is_not_absorbed():
    """The regression: only the watchdog's own Interrupt may be defused.

    A victim whose cleanup *itself* fails must surface that failure —
    masking it as a plain WatchdogTimeout loses the real diagnosis.
    """
    sim = Simulator()
    dog = Watchdog(sim, timeout=10.0)

    def victim():
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            raise RuntimeError("cleanup failed") from None

    with pytest.raises(RuntimeError, match="cleanup failed"):
        drive(sim, dog.guard(sim.process(victim())))
    assert dog.timeouts_fired == 1


def test_victim_completing_on_interrupt_wins_over_timeout():
    sim = Simulator()
    dog = Watchdog(sim, timeout=10.0)

    def victim():
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            return "partial result"

    assert drive(sim, dog.guard(sim.process(victim()))) == "partial result"
    assert dog.timeouts_fired == 1


def test_error_racing_the_deadline_instant_propagates():
    sim = Simulator()
    dog = Watchdog(sim, timeout=10.0)

    def victim():
        # Fails at exactly the deadline instant (photo finish).
        yield sim.timeout(10.0)
        raise ValueError("same-instant failure")

    with pytest.raises(ValueError, match="same-instant"):
        drive(sim, dog.guard(sim.process(victim())))


# ---------------------------------------------------------------- poll_until

def test_accept_on_first_poll_takes_zero_time():
    sim = Simulator()
    result = drive(sim, poll_until(
        sim,
        poll_factory=lambda: sim.timeout(0.0, value="ready"),
        accept=lambda r: True,
        interval=5.0, timeout=60.0))
    assert result == ("ready", 1)
    assert sim.now == 0.0            # no interval sleep was taken


def test_accept_exactly_at_the_deadline_boundary_wins():
    sim = Simulator()
    result = drive(sim, poll_until(
        sim,
        poll_factory=lambda: sim.timeout(0.0, value=sim.now),
        accept=lambda t: t >= 10.0,
        interval=5.0, timeout=10.0))
    # Polls at t=0, 5, 10; the boundary poll is accepted, not timed out.
    assert result == (10.0, 3)


def test_timeout_exactly_at_poll_boundary_gives_up_after_that_poll():
    sim = Simulator()
    with pytest.raises(WatchdogTimeout, match="3 polls"):
        drive(sim, poll_until(
            sim,
            poll_factory=lambda: sim.timeout(0.0, value="no"),
            accept=lambda r: False,
            interval=5.0, timeout=10.0))
    assert sim.now == 10.0           # no extra interval past the deadline


def test_failing_on_result_side_effect_propagates():
    sim = Simulator()

    def bad_side_effect(result):
        def op():
            yield sim.timeout(0.5)
            raise OSError("disk full")

        return sim.process(op())

    with pytest.raises(OSError, match="disk full"):
        drive(sim, poll_until(
            sim,
            poll_factory=lambda: sim.timeout(0.0, value="x"),
            accept=lambda r: False,
            interval=5.0, timeout=60.0,
            on_result=bad_side_effect))


def test_failing_poll_itself_propagates():
    sim = Simulator()

    def broken_poll():
        def op():
            yield sim.timeout(1.0)
            raise ConnectionError("poll target gone")

        return sim.process(op())

    with pytest.raises(ConnectionError, match="target gone"):
        drive(sim, poll_until(
            sim,
            poll_factory=broken_poll,
            accept=lambda r: True,
            interval=5.0, timeout=60.0))


def test_interval_must_be_positive():
    sim = Simulator()
    with pytest.raises(ValueError, match="interval"):
        poll_until(sim, poll_factory=lambda: sim.timeout(0.0),
                   accept=lambda r: True, interval=0.0, timeout=10.0)


def test_a_guarded_victim_that_finishes_leaves_its_deadline_bare():
    """Watchdog.guard is unchanged: its six-hour-style deadline stays
    queued after the victim returns, holding no callback of the fired
    wait (the kernel's condition unhooks itself)."""
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)
        return "done"

    guard = Watchdog(sim, timeout=6 * 3600.0).guard(sim.process(quick()))
    assert sim.run(until=guard) == "done"
    [deadline] = [ev for _, _, ev in sim._heap]
    assert deadline.callbacks == [] and sim.now == 1.0
