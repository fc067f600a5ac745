"""Unit tests for generator-based processes."""

import pytest

from repro.errors import SimulationError
from repro.simkernel import Interrupt, Simulator


def test_process_advances_clock():
    sim = Simulator()
    log = []

    def worker():
        log.append(sim.now)
        yield sim.timeout(3)
        log.append(sim.now)
        yield sim.timeout(2)
        log.append(sim.now)

    sim.process(worker())
    sim.run()
    assert log == [0.0, 3.0, 5.0]


def test_process_return_value():
    sim = Simulator()

    def worker():
        yield sim.timeout(1)
        return "result"

    proc = sim.process(worker())
    assert sim.run(until=proc) == "result"


def test_process_receives_event_value():
    sim = Simulator()

    def worker():
        got = yield sim.timeout(1, value="payload")
        return got

    proc = sim.process(worker())
    assert sim.run(until=proc) == "payload"


def test_process_waits_on_process():
    sim = Simulator()

    def child():
        yield sim.timeout(4)
        return 99

    def parent():
        value = yield sim.process(child())
        return value + 1

    proc = sim.process(parent())
    assert sim.run(until=proc) == 100
    assert sim.now == 4


def test_failed_event_raises_inside_process():
    sim = Simulator()
    trigger = sim.event()

    def worker():
        try:
            yield trigger
        except ValueError as exc:
            return f"caught {exc}"

    proc = sim.process(worker())
    trigger.fail(ValueError("bad"))
    assert sim.run(until=proc) == "caught bad"


def test_uncaught_process_exception_propagates_to_waiter():
    sim = Simulator()

    def worker():
        yield sim.timeout(1)
        raise RuntimeError("worker blew up")

    proc = sim.process(worker())
    with pytest.raises(RuntimeError, match="worker blew up"):
        sim.run(until=proc)


def test_non_generator_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.process(lambda: None)


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def worker():
        yield "not an event"

    proc = sim.process(worker())
    with pytest.raises(SimulationError, match="must .*yield Event"):
        sim.run(until=proc)


def test_interrupt_delivers_cause():
    sim = Simulator()
    seen = []

    def sleeper():
        try:
            yield sim.timeout(100)
        except Interrupt as intr:
            seen.append((sim.now, intr.cause))

    proc = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(5)
        proc.interrupt("wake up")

    sim.process(interrupter())
    sim.run()
    assert seen == [(5.0, "wake up")]


def test_interrupted_process_can_continue():
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(100)
        except Interrupt:
            pass
        yield sim.timeout(1)
        return sim.now

    proc = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(5)
        proc.interrupt()

    sim.process(interrupter())
    assert sim.run(until=proc) == 6.0


def test_interrupt_dead_process_rejected():
    sim = Simulator()

    def quick():
        yield sim.timeout(1)

    proc = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_is_alive_lifecycle():
    sim = Simulator()

    def worker():
        yield sim.timeout(2)

    proc = sim.process(worker())
    assert proc.is_alive
    sim.run()
    assert not proc.is_alive


def test_processes_start_in_creation_order():
    sim = Simulator()
    order = []

    def worker(tag):
        order.append(tag)
        yield sim.timeout(0)

    sim.process(worker("first"))
    sim.process(worker("second"))
    sim.run()
    assert order == ["first", "second"]


def test_process_starts_keep_their_queue_position():
    # A start is a queue slot taken at creation, interleaved FIFO with
    # whatever else is triggered in the same instant.
    sim = Simulator()
    order = []

    def worker(tag):
        order.append(tag)
        yield sim.timeout(0)

    def note(tag):
        event = sim.event()
        event.add_callback(lambda _e: order.append(tag))
        event.succeed()

    sim.process(worker("p1"))
    note("e1")
    sim.process(worker("p2"))
    sim.timeout(0).add_callback(lambda _e: order.append("t1"))
    sim.process(worker("p3"))
    note("e2")
    assert order == []  # nothing runs on the constructing stack
    assert sim.queued_events == 6
    sim.run()
    assert order == ["p1", "e1", "p2", "t1", "p3", "e2"]


def test_start_costs_one_event_and_allocates_none():
    sim = Simulator()

    def worker():
        yield sim.timeout(1)

    proc = sim.process(worker())
    assert proc.is_alive and not proc.triggered
    assert proc._target is proc  # waiting on its own start slot
    assert sim.queued_events == 1 and sim._heap[0][2] is proc
    sim.step()  # the start slot: first turn, nothing decided yet
    assert proc.is_alive and not proc.processed
    assert proc._target is not proc and proc._target.delay == 1
    sim.run()
    assert not proc.is_alive and proc._target is None
    assert sim.events_processed == 3  # start, timeout, completion


def test_interrupt_just_created_process_lands_at_first_yield():
    sim = Simulator()
    seen = []

    def sleeper():
        seen.append("started")
        try:
            yield sim.timeout(100)
        except Interrupt as intr:
            seen.append((sim.now, intr.cause))

    proc = sim.process(sleeper())
    proc.interrupt("early")  # before its first turn: allowed, queued
    sim.run(until=proc)
    assert seen == ["started", (0.0, "early")]


def test_interrupt_just_created_process_that_never_yields_is_dropped():
    sim = Simulator()

    def instant():
        return "done"
        yield  # pragma: no cover - generator shape

    proc = sim.process(instant())
    proc.interrupt("too late by the time it lands")
    assert sim.run(until=proc) == "done"
    sim.run()


@pytest.mark.parametrize("profiled", [False, True], ids=["bare", "profiled"])
def test_failure_on_first_turn_fails_the_process_not_the_start(profiled):
    from repro.telemetry.profiler import KernelProfiler

    def dies():
        raise RuntimeError("died on its first turn")
        yield  # pragma: no cover - generator shape

    def parent(sim):
        try:
            yield sim.process(dies())
        except RuntimeError as exc:
            return f"caught: {exc}"

    sim = Simulator()
    if profiled:
        KernelProfiler(sim).attach()
    assert sim.run(until=sim.process(parent(sim))) == \
        "caught: died on its first turn"

    # With no waiter the failure still surfaces, from the process's own
    # event rather than from its start slot.
    sim = Simulator()
    if profiled:
        KernelProfiler(sim).attach()
    orphan = sim.process(dies())
    sim.step()
    assert orphan.triggered and not orphan.ok
    with pytest.raises(RuntimeError, match="first turn"):
        sim.step()


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()

    def worker():
        while True:
            yield sim.timeout(10)

    sim.process(worker())
    sim.run(until=25)
    assert sim.now == 25
    assert sim.queued_events >= 1
