"""Property-based tests for the simulation kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import Simulator
from repro.simkernel.rng import RngRegistry

delays = st.lists(
    st.floats(min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=50,
)


@given(delays)
def test_events_fire_in_nondecreasing_time_order(ds):
    """The clock never goes backwards, whatever the scheduling order."""
    sim = Simulator()
    fired = []
    for d in ds:
        sim.timeout(d).add_callback(lambda e: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(ds)


@given(delays)
def test_clock_ends_at_max_delay(ds):
    sim = Simulator()
    for d in ds:
        sim.timeout(d)
    sim.run()
    assert sim.now == max(ds)


@given(delays, st.data())
def test_cancelled_timers_never_fire_and_the_rest_keep_their_order(ds, data):
    """Dropping queued timers, in any order and at any point, leaves the
    others firing exactly as they would have, in (time, creation) order."""
    sim = Simulator()
    fired = []
    timers = []
    for i, d in enumerate(ds):
        timer = sim.timeout(d)
        timer.add_callback(lambda e, i=i: fired.append(i))
        timers.append(timer)
    doomed = data.draw(st.lists(st.sampled_from(range(len(ds))),
                                unique=True))
    for i in doomed:
        sim.cancel(timers[i])
    sim.run()
    kept = [i for i in range(len(ds)) if i not in doomed]
    assert fired == sorted(kept, key=lambda i: (ds[i], i))
    assert sim.queued_events == 0


@given(delays)
def test_same_seed_same_trace(ds):
    """Two simulators fed identical work produce identical event traces."""
    def build():
        sim = Simulator(trace=True)
        for d in ds:
            sim.timeout(d, value=d)
        sim.run()
        return sim.trace()

    assert build() == build()


@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=20))
def test_rng_streams_reproducible(seed, name):
    a = RngRegistry(seed).stream(name)
    b = RngRegistry(seed).stream(name)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


@given(st.integers(min_value=0, max_value=2**31))
def test_rng_streams_independent_of_sibling_consumption(seed):
    """Draws from one stream never perturb another stream's sequence."""
    reg1 = RngRegistry(seed)
    s1 = reg1.stream("target")
    baseline = [s1.random() for _ in range(5)]

    reg2 = RngRegistry(seed)
    other = reg2.stream("other")
    [other.random() for _ in range(100)]  # consume heavily from a sibling
    s2 = reg2.stream("target")
    assert [s2.random() for _ in range(5)] == baseline


@given(st.integers(min_value=0, max_value=2**31),
       st.text(min_size=1, max_size=20), st.integers(0, 3))
def test_rng_one_shot_is_the_head_of_the_stream_and_is_not_kept(
        seed, name, earlier):
    registry = RngRegistry(seed)
    for i in range(earlier):  # other names in use never matter
        registry.stream(f"sibling-{i}").random()
    once = registry.one_shot(name)
    draws = [once.random() for _ in range(5)] + [once.randint(0, 99)]
    assert name not in registry
    again = registry.one_shot(name)  # nothing remembered: same head again
    assert again is not once and again.random() == draws[0]
    stream = RngRegistry(seed).stream(name)
    assert draws == [stream.random() for _ in range(5)] + [
        stream.randint(0, 99)]
    # ...and a retained stream of that name is not disturbed by it.
    kept = registry.stream(name)
    assert name in registry and kept.random() == draws[0]
    registry.one_shot(name).random()
    assert kept.random() == draws[1]


@settings(max_examples=25)
@given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=100),
                          st.floats(min_value=0.01, max_value=100)),
                min_size=1, max_size=12),
       st.integers(min_value=1, max_value=4))
def test_resource_never_oversubscribed(jobs, capacity):
    """At no instant do more than `capacity` processes hold the resource."""
    from repro.simkernel import Resource

    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    max_seen = []

    def worker(arrive, hold):
        yield sim.timeout(arrive)
        req = res.request()
        yield req
        max_seen.append(res.count)
        yield sim.timeout(hold)
        res.release(req)

    for arrive, hold in jobs:
        sim.process(worker(arrive, hold))
    sim.run()
    assert len(max_seen) == len(jobs)  # everyone got served
    assert max(max_seen) <= capacity


@given(st.integers(min_value=0, max_value=2**31),
       st.text(min_size=1, max_size=20))
def test_rng_lazy_draws_are_one_shots_and_seed_nothing_until_asked(
        seed, name):
    registry = RngRegistry(seed)
    seeded = []
    real = registry.one_shot

    def counting(n):
        seeded.append(n)
        return real(n)

    registry.one_shot = counting
    lazy = registry.lazy(name)
    assert seeded == [] and name not in registry
    draws = [lazy.random() for _ in range(3)] + [lazy.uniform(1.0, 9.0)]
    assert seeded == [name] and name not in registry
    once = real(name)
    assert draws == [once.random() for _ in range(3)] + [
        once.uniform(1.0, 9.0)]
