"""Unit tests for the sim-kernel wall-clock profiler."""

import itertools

from repro.simkernel.kernel import Simulator
from repro.telemetry.events import bus
from repro.telemetry.gauges import gauges
from repro.telemetry.profiler import KernelProfiler, profile


def _fake_clock():
    """A deterministic wall clock: +1 "second" per reading."""
    counter = itertools.count()
    return lambda: float(next(counter))


def _tick_process(sim, n):
    def op():
        for _ in range(n):
            yield sim.timeout(1.0)
    return op()


def test_bucket_collapses_digit_runs_and_handles_bare_functions():
    class Owner:
        def __init__(self, name):
            self.name = name

        def cb(self, event):
            pass

    def bare(event):
        pass

    sim = Simulator(seed=0)
    prof = KernelProfiler(sim, clock=_fake_clock())
    prof.run_callbacks(sim.event(), [Owner("worker17").cb,
                                     Owner("tenant:003:shard9").cb, bare])
    buckets = set(prof.calls)
    assert {"worker#", "tenant:#:shard#"} <= buckets
    assert any("bare" in b for b in buckets)


def test_attach_detach_install_and_remove_all_hooks():
    sim = Simulator(seed=0)
    board = gauges(sim)
    pre_existing = board.gauge("pre.depth")
    prof = KernelProfiler(sim).attach()
    assert sim._profiler is prof
    assert bus(sim).profiler is prof
    assert board.profiler is prof
    assert pre_existing.profiler is prof
    assert board.gauge("post.depth").profiler is prof  # created while on
    prof.detach()
    assert sim._profiler is None
    assert bus(sim).profiler is None
    assert board.profiler is None
    assert pre_existing.profiler is None
    prof.detach()  # idempotent


def test_self_time_attribution_with_fake_clock():
    sim = Simulator(seed=0)
    prof = KernelProfiler(sim, clock=_fake_clock()).attach()
    sim.process(_tick_process(sim, 3), name="worker1")
    sim.process(_tick_process(sim, 2), name="worker2")
    sim.run()
    prof.detach()
    # Both workers collapse into one bucket; each resume costs exactly
    # one fake second (two clock readings around the callback).
    assert prof.calls["worker#"] == 7  # 3+1 and 2+1 resumes (incl. starts)
    assert prof.self_seconds["worker#"] == 7.0
    assert prof.events_dispatched > 0
    assert prof.dispatch_seconds == sum(prof.self_seconds.values())
    top = prof.top(1)
    assert top[0]["bucket"] == "worker#"
    report = prof.report()
    assert "events/second" in report and "worker#" in report
    assert prof.telemetry_seconds == 0.0


def test_hardware_operations_are_charged_to_named_buckets():
    from repro.hardware import Disk, Network

    sim = Simulator(seed=0)
    net = Network(sim)
    net.connect("h1", "h2", bandwidth=1e6, latency=0.001)
    disk = Disk(sim, bandwidth=1e6, name="h1.disk")
    prof = KernelProfiler(sim, clock=_fake_clock()).attach()
    ops = [net.transfer("h1", "h2", 4096, label="soap-req:Svc.go"),
           net.transfer("h2", "h1", 4096), disk.write(4096)]
    sim.run()
    prof.detach()
    assert all(op.processed for op in ops)
    calls = prof.calls
    # The latency hop per transfer (armed on creation, no start slot);
    # the disk op's seek timeout; one fair-share timer per device.
    assert calls["xfer:h#->h#:soap-req:Svc.go"] == 1
    assert calls["xfer:h#->h#"] == 1
    assert calls["h#.disk:write"] == 1
    assert calls["h#<->h#"] == 2 and calls["h#.disk"] == 1
    assert not any("lambda" in b or "locals" in b or b == "<callback>"
                   for b in calls)
    assert sum(calls.values()) == 6  # nobody waits on the ops here


def test_telemetry_split_charges_bus_and_gauges():
    sim = Simulator(seed=0)
    prof = KernelProfiler(sim, clock=_fake_clock()).attach()

    def op():
        yield sim.timeout(1.0)
        bus(sim).emit("x.y", layer="test")
        gauges(sim).gauge("depth").set(4.0)

    sim.run(until=sim.process(op(), name="p"))
    prof.detach()
    # One emit + one gauge set, one fake second each.
    assert prof.telemetry_seconds == 2.0
    assert prof.simulation_seconds() == prof.dispatch_seconds - 2.0
    assert 0.0 < prof.telemetry_fraction() < 1.0


def test_profiler_does_not_perturb_the_timeline():
    def run(profiled):
        sim = Simulator(seed=0)
        prof = KernelProfiler(sim).attach() if profiled else None
        sim.process(_tick_process(sim, 50), name="a")
        sim.process(_tick_process(sim, 30), name="b")
        sim.run()
        if prof is not None:
            prof.detach()
        return sim.now, sim.events_processed

    assert run(False) == run(True)


def test_exceptions_propagate_but_time_is_still_charged():
    sim = Simulator(seed=0)
    clock = _fake_clock()
    prof = KernelProfiler(sim, clock=clock)

    class Owner:
        name = "boom1"

        def cb(self, event):
            raise RuntimeError("handler failed")

    try:
        prof.run_callbacks(None, [Owner().cb])
    except RuntimeError:
        pass
    else:  # pragma: no cover - the raise is the point
        raise AssertionError("exception swallowed")
    assert prof.calls["boom#"] == 1
    assert prof.self_seconds["boom#"] == 1.0


def test_profile_context_manager_and_throughput_meter():
    sim = Simulator(seed=0)
    clock = _fake_clock()
    with profile(sim, clock=clock) as prof:
        sim.process(_tick_process(sim, 5), name="w")
        sim.run()
    assert not prof.attached
    assert prof.wall_seconds > 0
    assert prof.events_per_second() == prof.events_dispatched / prof.wall_seconds
