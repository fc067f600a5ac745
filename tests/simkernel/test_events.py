"""Unit tests for simkernel event primitives."""

import pytest

from repro.errors import CausalityError, SimulationError
from repro.simkernel import Simulator


def test_event_starts_pending():
    sim = Simulator()
    ev = sim.event()
    assert not ev.triggered
    assert not ev.processed
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_succeed_carries_value():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(42)
    assert ev.triggered
    assert ev.ok
    assert ev.value == 42


def test_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"))


def test_fail_requires_exception_instance():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_callbacks_run_in_registration_order():
    sim = Simulator()
    ev = sim.event()
    order = []
    ev.add_callback(lambda e: order.append("a"))
    ev.add_callback(lambda e: order.append("b"))
    ev.succeed()
    sim.run()
    assert order == ["a", "b"]


def test_late_callback_runs_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("v")
    sim.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == ["v"]


def test_timeout_fires_at_right_time():
    sim = Simulator()
    fired = []
    ev = sim.timeout(2.5, value="done")
    ev.add_callback(lambda e: fired.append((sim.now, e.value)))
    sim.run()
    assert fired == [(2.5, "done")]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(CausalityError):
        sim.timeout(-1)


def test_zero_timeout_allowed():
    sim = Simulator()
    ev = sim.timeout(0)
    sim.run()
    assert ev.processed
    assert sim.now == 0.0


def test_unhandled_failure_raises_from_run():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_defused_failure_does_not_raise():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("boom"))
    ev.defused()
    sim.run()  # no raise
    assert not ev.ok


def test_anyof_fires_on_first_child():
    sim = Simulator()
    slow = sim.timeout(10, value="slow")
    fast = sim.timeout(1, value="fast")
    cond = sim.any_of([slow, fast])
    sim.run(until=cond)
    assert sim.now == 1
    assert fast in cond.value
    assert cond.value[fast] == "fast"


def test_anyof_reports_only_children_that_have_fired():
    # A Timeout holds its value from construction; it used to be listed
    # as finished 99 s before it fired.
    sim = Simulator()
    late = sim.timeout(100, value="late")
    early = sim.timeout(1, value="early")
    cond = sim.any_of([late, early])
    assert sim.run(until=cond) == {early: "early"}
    assert sim.now == 1

    def waiter():
        return (yield sim.any_of([sim.timeout(100, "late"),
                                  sim.timeout(1, "early")]))

    assert list(sim.run(until=sim.process(waiter())).values()) == ["early"]


def test_anyof_leaves_out_same_instant_children_still_queued():
    sim = Simulator()
    first, second = sim.event(), sim.event()
    cond = sim.any_of([first, second])
    first.succeed("a")
    second.succeed("b")  # triggered, but queued behind ``first``
    assert sim.run(until=cond) == {first: "a"}
    # A child processed before the condition was built does count.
    again = sim.any_of([first, sim.timeout(5)])
    assert sim.run(until=again) == {first: "a"}


def test_allof_collects_children_processed_before_and_after():
    sim = Simulator()
    done = sim.timeout(1, value="done")
    sim.run()
    a = sim.timeout(1, value="a")
    b = sim.timeout(5, value="b")
    cond = sim.all_of([done, a, b])
    assert sim.run(until=cond) == {done: "done", a: "a", b: "b"}
    assert sim.now == 6


def test_allof_waits_for_all_children():
    sim = Simulator()
    a = sim.timeout(1, value="a")
    b = sim.timeout(5, value="b")
    cond = sim.all_of([a, b])
    value = sim.run(until=cond)
    assert sim.now == 5
    assert value == {a: "a", b: "b"}


def test_allof_fails_on_first_child_failure():
    sim = Simulator()
    ok = sim.timeout(10)
    bad = sim.event()
    cond = sim.all_of([ok, bad])
    bad.fail(RuntimeError("child died"))
    with pytest.raises(RuntimeError, match="child died"):
        sim.run(until=cond)


def test_empty_allof_fires_immediately():
    sim = Simulator()
    cond = sim.all_of([])
    assert cond.triggered
    sim.run()
    assert cond.value == {}


def test_condition_rejects_foreign_events():
    sim1 = Simulator()
    sim2 = Simulator()
    with pytest.raises(SimulationError):
        sim1.all_of([sim2.timeout(1)])


def test_same_time_events_fifo_order():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.timeout(1.0, value=i).add_callback(lambda e: order.append(e.value))
    sim.run()
    assert order == list(range(10))


# -- a fired condition lets go of its pending timers -------------------------

def test_a_fired_anyof_leaves_no_callback_on_a_pending_timeout():
    sim = Simulator()
    deadline = sim.timeout(6 * 3600.0)
    done = sim.event()
    cond = sim.any_of([done, deadline])
    done.succeed("out")
    sim.run(until=cond)
    assert cond.value == {done: "out"}
    # The timer is still queued — the clock and event count of a run to
    # exhaustion are what they were — but holds nothing of the condition.
    assert sim.queued_events == 1 and deadline.callbacks == []
    sim.run()
    assert sim.now == 6 * 3600.0 and sim.events_processed == 3


def test_a_failed_allof_unhooks_from_timeouts_only():
    sim = Simulator()
    timer = sim.timeout(10.0)
    failing, later = sim.event(), sim.event()
    cond = sim.all_of([failing, timer, later])
    failing.fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError):
        sim.run(until=cond)
    assert timer.callbacks == [] and later.callbacks == [cond._check]


def test_a_pending_process_child_keeps_its_hook_and_its_failure_is_defused():
    sim = Simulator()

    def dies_later():
        yield sim.timeout(5.0)
        raise ValueError("late")

    victim = sim.process(dies_later())
    early = sim.timeout(1.0)
    cond = sim.any_of([victim, early])
    sim.run(until=cond)
    assert early in cond.value and victim.callbacks == [cond._check]
    sim.run()  # the late failure is defused by the hook, not raised
    assert not victim.ok and sim.now == 5.0


def test_other_conditions_on_a_timeout_keep_their_hooks():
    sim = Simulator()
    shared = sim.timeout(3.0)
    first, second = sim.event(), sim.event()
    fired = sim.any_of([first, shared])
    waiting = sim.any_of([second, shared])
    first.succeed()
    sim.run(until=fired)
    assert shared.callbacks == [waiting._check]
    sim.run(until=waiting)
    assert waiting.value == {shared: None}



class _Payload:
    """A timeout's value that only the timeout holds: it is freed when,
    and only when, the timeout is (``Timeout`` takes no weak reference)."""


def _without_gc(body):
    import gc
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        body()
    finally:
        if was_enabled:
            gc.enable()


def test_a_fired_timeout_is_freed_by_reference_counting():
    """A timeout's queue slot is ``(time, seq)``, not the entry that
    holds the timeout: once it has fired and nothing else holds it, it
    is gone without the cyclic collector."""
    import weakref

    sim = Simulator()
    fired = []
    timer = sim.timeout(1.0, value=_Payload())
    timer.add_callback(lambda ev: fired.append(ev.ok))
    ref = weakref.ref(timer.value)
    del timer

    def body():
        sim.run()
        assert fired == [True]
        assert ref() is None
    _without_gc(body)


def test_a_cancelled_timeout_is_freed_by_reference_counting():
    import weakref

    sim = Simulator()
    timer = sim.timeout(5.0, value=_Payload())
    keep = sim.timeout(1.0)
    ref = weakref.ref(timer.value)

    def body():
        sim.cancel(timer)
        assert ref() is not None  # the caller still holds it
        assert sim.queued_events == 1
        sim.run()
        assert sim.now == 1.0 and keep.processed
    _without_gc(body)
    del timer
    assert ref() is None
