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


@settings(max_examples=25)
@given(st.lists(st.floats(min_value=0.1, max_value=50), min_size=1, max_size=10))
def test_container_conserves_quantity(amounts):
    """Total put == total got + residual level."""
    from repro.simkernel import Container

    sim = Simulator()
    tank = Container(sim, capacity=sum(amounts) + 1)
    got = []

    def producer():
        for a in amounts:
            yield tank.put(a)
            yield sim.timeout(1)

    def consumer():
        for a in amounts:
            ev = tank.get(a)
            yield ev
            got.append(ev.value)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert abs(sum(got) - sum(amounts)) < 1e-9
    assert tank.level == 0
