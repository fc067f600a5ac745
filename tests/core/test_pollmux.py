"""PollMux: adaptive batching, determinism, exactly-once detection."""

import pytest

from repro.core.watchdog import await_waiter
from repro.errors import GridError, WatchdogTimeout
from repro.grid.poller import PollMux
from repro.simkernel import Simulator
from repro.telemetry.events import bus
from repro.telemetry.gauges import gauges


def make_mux(sim, finish_times, cost=0.25, **kw):
    """A mux whose batch op reports ready once sim.now >= finish time."""

    def batch_poll(batch):
        def op():
            yield sim.timeout(cost)  # the exchange takes simulated time
            return {key: {"ready": sim.now >= finish_times[key]}
                    for key, _token in batch}

        return sim.process(op(), name="test-batch")

    kw.setdefault("min_interval", 2.0)
    kw.setdefault("max_interval", 16.0)
    return PollMux(sim, "testsite", batch_poll,
                   accept=lambda r: r is not None and r["ready"], **kw)


def test_single_job_detected_with_poll_count():
    sim = Simulator()
    mux = make_mux(sim, {"j1": 5.0})

    def flow():
        result, polls = yield mux.register("j1")
        return result, polls, sim.now

    result, polls, at = sim.run(until=sim.process(flow()))
    assert result["ready"]
    assert polls >= 2  # first poll at ~0 is early, later one detects
    assert at >= 5.0
    assert mux.pending == 0


def test_interval_backs_off_then_resets_on_detection():
    sim = Simulator()
    mux = make_mux(sim, {"j1": 30.0})

    def flow():
        yield mux.register("j1")

    sim.run(until=sim.process(flow()))
    intervals = [ev.fields["interval"]
                 for ev in bus(sim).events(kind="poller.batch")]
    # Exponential backoff from the floor up to the cap, never past it.
    assert intervals[0] == 2.0
    assert max(intervals) == 16.0
    assert intervals == sorted(intervals)
    # The detection round snapped the next-interval back to the floor.
    assert mux.interval == 2.0


def test_same_seed_identical_event_trace():
    def trace(seed):
        sim = Simulator(seed=seed)
        mux = make_mux(sim, {"a": 7.0, "b": 19.0, "c": 11.0})

        def flow():
            yield sim.all_of([mux.register(k) for k in ("a", "b", "c")])

        sim.run(until=sim.process(flow()))
        return [(ev.ts, ev.kind, ev.fields.get("jobs"),
                 ev.fields.get("key"), ev.fields.get("interval"))
                for ev in bus(sim).events()
                if ev.kind.startswith("poller.")]

    first, second = trace(3), trace(3)
    assert first == second
    assert any(kind == "poller.detect" for _, kind, *_ in first)


def test_mixed_completion_order_detected_exactly_once():
    sim = Simulator()
    # Completion order b, c, a — registration order a, b, c; b and c
    # both finish inside one backed-off sleep window.
    mux = make_mux(sim, {"a": 40.0, "b": 5.0, "c": 6.0})
    detections = []

    def waiter(key):
        def op():
            result, polls = yield mux.register(key)
            detections.append((key, sim.now, polls))

        return sim.process(op(), name=f"wait:{key}")

    sim.run(until=sim.all_of([waiter(k) for k in ("a", "b", "c")]))
    assert sorted(k for k, _, _ in detections) == ["a", "b", "c"]
    # Exactly one detect event per job, regardless of finish order.
    detects = [ev.fields["key"]
               for ev in bus(sim).events(kind="poller.detect")]
    assert sorted(detects) == ["a", "b", "c"]
    by_key = {k: t for k, t, _ in detections}
    # b and c fell in the same sleep window: one round catches both.
    assert by_key["b"] == by_key["c"]
    assert by_key["c"] < by_key["a"]


def test_register_wakes_a_sleeping_loop():
    sim = Simulator()
    mux = make_mux(sim, {"slow": 100.0, "fast": 0.0})
    times = {}

    def first():
        yield sim.timeout(60.0)  # loop is deep into 16s sleeps by now
        result, _ = yield mux.register("fast")
        times["fast"] = sim.now

    def slow():
        yield mux.register("slow")

    slow_p = sim.process(slow(), name="slow")
    sim.run(until=sim.process(first(), name="first"))
    # Registration woke the loop: detection ~one batch cost later, not
    # after the remainder of a 16-second backoff sleep.
    assert times["fast"] - 60.0 < 2.0
    sim.run(until=slow_p)


def test_batch_failure_fails_every_waiter():
    sim = Simulator()

    def batch_poll(batch):
        def op():
            yield sim.timeout(0.1)
            raise GridError("gatekeeper exploded")

        return sim.process(op(), name="boom")

    mux = PollMux(sim, "site", batch_poll, accept=lambda r: True)
    outcomes = []

    def waiter(key):
        def op():
            try:
                yield mux.register(key)
            except GridError as exc:
                outcomes.append((key, str(exc)))

        return sim.process(op(), name=f"wait:{key}")

    sim.run(until=sim.all_of([waiter("a"), waiter("b")]))
    assert len(outcomes) == 2
    assert mux.pending == 0


def test_duplicate_registration_rejected():
    sim = Simulator()
    mux = make_mux(sim, {"j": 5.0})

    def flow():
        event = mux.register("j")
        with pytest.raises(ValueError):
            mux.register("j")
        yield event

    sim.run(until=sim.process(flow()))


def test_unregister_stops_polling_and_is_idempotent():
    sim = Simulator()
    mux = make_mux(sim, {"j": 1e9})

    def flow():
        mux.register("j")
        yield sim.timeout(5.0)
        mux.unregister("j")
        mux.unregister("j")  # idempotent
        yield sim.timeout(100.0)

    sim.run(until=sim.process(flow()))
    assert mux.pending == 0
    # The loop died once the last key left; no further rounds happened.
    rounds_after = mux.rounds
    sim.run(until=sim.timeout(100.0))
    assert mux.rounds == rounds_after


def test_pending_and_interval_gauges_track():
    sim = Simulator()
    mux = make_mux(sim, {"a": 4.0, "b": 4.0})

    def flow():
        yield sim.all_of([mux.register("a"), mux.register("b")])

    sim.run(until=sim.process(flow()))
    assert gauges(sim).gauge("poller.testsite.pending").peak() == 2
    assert gauges(sim).gauge("poller.testsite.pending").current == 0
    assert gauges(sim).gauge("poller.testsite.batch").current == 0


def test_constructed_mux_schedules_nothing():
    sim = Simulator()
    make_mux(sim, {})
    assert sim.run() is None  # no events at all: the heap starts empty
    assert sim.now == 0.0


def test_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        PollMux(sim, "x", lambda b: None, lambda r: True, min_interval=0.0)
    with pytest.raises(ValueError):
        PollMux(sim, "x", lambda b: None, lambda r: True,
                min_interval=5.0, max_interval=1.0)
    with pytest.raises(ValueError):
        PollMux(sim, "x", lambda b: None, lambda r: True, backoff=0.5)


# --------------------------------------------------- await_waiter on a mux

def await_mux(sim, mux, key, token, timeout):
    """await_waiter wired to a PollMux the way ``_await_output`` does."""
    return await_waiter(sim, lambda: mux.register(key, token),
                        lambda waiter: mux.unregister(key), timeout,
                        f"multiplexed polling for {key!r}")


def test_await_mux_returns_result_and_polls():
    sim = Simulator()
    mux = make_mux(sim, {"j": 9.0})

    def flow():
        result, polls = yield await_mux(sim, mux, "j", None, timeout=60.0)
        return result, polls

    result, polls = sim.run(until=sim.process(flow()))
    assert result["ready"] and polls >= 1


def test_await_mux_timeout_unregisters():
    sim = Simulator()
    mux = make_mux(sim, {"j": 1e9})

    def flow():
        yield await_mux(sim, mux, "j", None, timeout=30.0)

    with pytest.raises(WatchdogTimeout):
        sim.run(until=sim.process(flow()))
    assert mux.pending == 0


def test_await_mux_propagates_batch_failure():
    sim = Simulator()

    def batch_poll(batch):
        def op():
            yield sim.timeout(0.1)
            raise GridError("site melted")

        return sim.process(op(), name="boom")

    mux = PollMux(sim, "site", batch_poll, accept=lambda r: True)

    def flow():
        yield await_mux(sim, mux, "j", None, timeout=60.0)

    with pytest.raises(GridError, match="melted"):
        sim.run(until=sim.process(flow()))


def test_register_mid_batch_keeps_snap_to_floor():
    """Regression: a key registered while a quiet batch is in flight
    snaps the interval to the floor, and the quiet round's backoff must
    not immediately multiply it away (the "fresh job deserves a fast
    first look" contract)."""
    sim = Simulator()
    # Batch exchanges take 1s; "a" never finishes, "b" finishes at 3s.
    mux = make_mux(sim, {"a": 1e9, "b": 3.0}, cost=1.0)
    detected = {}

    def first():
        yield mux.register("a")

    def second():
        yield sim.timeout(0.5)  # the first batch poll is in flight
        result, polls = yield mux.register("b")
        detected["b"] = sim.now

    sim.process(first(), name="first")
    sim.run(until=sim.process(second(), name="second"))
    # Round 1 (quiet, b unseen) ends at t=1; the floor survives it, so
    # round 2 launches at t=3 and detects b at t=4.  With the backoff
    # bug the floor became min*backoff=4s and detection slipped to t=6.
    assert detected["b"] == 4.0
    intervals = [ev.fields["interval"]
                 for ev in bus(sim).events(kind="poller.batch")]
    assert intervals[:2] == [2.0, 2.0]


def test_mid_batch_registrant_survives_batch_failure():
    """Regression: a batch failure fails only the waiters that batch
    actually covered — a key registered while it was in flight was
    never polled, stays pending, and the restarted loop detects it."""
    sim = Simulator()
    calls = {"n": 0}

    def batch_poll(batch):
        def op():
            calls["n"] += 1
            attempt = calls["n"]
            yield sim.timeout(1.0)
            if attempt == 1:
                raise GridError("transient gatekeeper fault")
            return {key: {"ready": True} for key, _token in batch}

        return sim.process(op(), name="batch")

    mux = PollMux(sim, "site", batch_poll,
                  accept=lambda r: r is not None and r["ready"])
    outcomes = {}

    def first():
        try:
            yield mux.register("a")
        except GridError as exc:
            outcomes["a"] = exc

    def second():
        yield sim.timeout(0.5)  # the doomed batch is in flight
        result, polls = yield mux.register("b")
        outcomes["b"] = (result, polls, sim.now)

    sim.run(until=sim.all_of([sim.process(first(), name="first"),
                              sim.process(second(), name="second")]))
    # "a" was in the failed batch and got its error...
    assert isinstance(outcomes["a"], GridError)
    # ...but "b" was not: it survived, the loop restarted promptly, and
    # the very next round (t=1 -> t=2) detected it on its first poll.
    result, polls, at = outcomes["b"]
    assert result["ready"] and polls == 1
    assert at == 2.0
    assert mux.pending == 0


def test_await_mux_timeout_then_reregister_same_key():
    """Regression: after a waiter times out mid-batch, re-registering
    the same key must hand the *fresh* waiter a result from a poll made
    after its registration — never the in-flight batch's result for the
    abandoned predecessor."""
    sim = Simulator()
    # Slow exchanges (5s) so the deadline fires while a batch is out;
    # the job "finishes" at t=4, inside the first batch's flight.
    mux = make_mux(sim, {"j": 4.0}, cost=5.0)
    history = []

    def flow():
        try:
            yield await_mux(sim, mux, "j", None, timeout=2.0)
        except WatchdogTimeout:
            history.append(("timeout", sim.now))
        result, polls = yield await_mux(sim, mux, "j", None, timeout=60.0)
        history.append(("detected", sim.now, polls))
        return result

    result = sim.run(until=sim.process(flow(), name="flow"))
    assert result["ready"]
    # The first batch (t=0 -> t=5) must not satisfy the re-registered
    # waiter (registered at t=2): after one floor-interval sleep the
    # next round (t=7 -> t=12) detects it on its *own* first poll.
    assert history == [("timeout", 2.0), ("detected", 12.0, 1)]
    assert mux.pending == 0


def test_await_mux_rejects_bad_timeout():
    sim = Simulator()
    mux = make_mux(sim, {})
    with pytest.raises(ValueError):
        await_mux(sim, mux, "j", None, timeout=0.0)
