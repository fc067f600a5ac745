"""The fair-share server against its timer-and-settle form.

``ReferenceServer`` below is the server as it was before its completion
timers became bare start slots: a full ``Timeout`` with a callback per
re-arm, a flow-id ``frozenset`` of expected finishers, the integration
pass and re-arm scan on every join (idle or not), and a counter read
that settles.  The property holds the current server to it, bit for
bit, on everything a caller sees except ``work_integral`` reads (which
no longer settle; ``test_fairshare.py`` covers those): completion
order, instants and values, per-tag counters sampled mid-flight, and
the number of events the kernel processed.
"""

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HardwareError
from repro.hardware.fairshare import FairShareServer
from repro.simkernel import Simulator
from repro.simkernel.events import Event, Timeout

_EPS = 1e-9


# -- the reference: timers are Timeouts, finishers are flow ids ------------

class _RefFlow:
    __slots__ = ("flow_id", "total", "remaining", "finish_below", "tags",
                 "done", "started_at")

    def __init__(self, flow_id, total, tags, done, started_at):
        self.flow_id = flow_id
        self.total = total
        self.remaining = total
        self.finish_below = max(_EPS, total * 1e-12)
        self.tags = tags
        self.done = done
        self.started_at = started_at


class ReferenceServer:
    def __init__(self, sim, capacity, per_flow_cap=None, name=""):
        self.sim = sim
        self.capacity = float(capacity)
        self.per_flow_cap = per_flow_cap
        self.name = name
        self._flows = []
        self._last_update = sim.now
        self._counter = itertools.count(1)
        self._cumulative = {}
        self._work_integral = 0.0
        self._timer_generation = 0
        self._expected_finishers = frozenset()

    def current_rate(self):
        n = len(self._flows)
        if n == 0:
            return 0.0
        rate = self.capacity / n
        if self.per_flow_cap is not None:
            rate = min(rate, self.per_flow_cap)
        return rate

    def submit(self, work, tags=("default",)):
        return self.join(work, tuple(tags), Event(self.sim, "flow"),
                         self.sim.now)

    def join(self, work, tags, done, started_at):
        if work < 0:
            raise HardwareError(f"{self.name}: negative work {work!r}")
        for tag in tags:
            self._cumulative.setdefault(tag, 0.0)
        if work == 0:
            done.succeed(self.sim.now - started_at)
            return done
        self._advance()
        self._flows.append(
            _RefFlow(next(self._counter), float(work), tags, done,
                     started_at))
        self._reschedule()
        return done

    def cumulative(self, tag="default"):
        done = self._cumulative.get(tag, 0.0)
        rate = self.current_rate()
        elapsed = self.sim.now - self._last_update
        if rate > 0 and elapsed > 0:
            for flow in self._flows:
                if tag in flow.tags:
                    done += min(flow.remaining, rate * elapsed)
        return done

    def _settle(self, force_finish=frozenset()):
        self._advance(force_finish)
        self._reschedule()

    def _advance(self, force_finish=frozenset()):
        now = self.sim.now
        flows = self._flows
        cumulative = self._cumulative
        elapsed = now - self._last_update
        if elapsed > 0 and flows:
            step = self.current_rate() * elapsed
            integral = self._work_integral
            for flow in flows:
                remaining = flow.remaining
                progress = step if step < remaining else remaining
                flow.remaining = remaining - progress
                integral += progress
                for tag in flow.tags:
                    cumulative[tag] += progress
            self._work_integral = integral
        self._last_update = now
        finished = [flow for flow in flows
                    if flow.remaining <= flow.finish_below
                    or flow.flow_id in force_finish]
        for flow in finished:
            flows.remove(flow)
            for tag in flow.tags:
                cumulative[tag] += flow.remaining
            self._work_integral += flow.remaining
            flow.remaining = 0.0
            flow.done.succeed(now - flow.started_at)

    def _reschedule(self):
        self._timer_generation += 1
        flows = self._flows
        if not flows:
            return
        rate = self.current_rate()
        least = min(flow.remaining for flow in flows)
        tolerance = least * 1e-9 + _EPS
        expected = frozenset(flow.flow_id for flow in flows
                             if flow.remaining - least <= tolerance)
        delay = least / rate if rate > 0 else math.inf
        if delay == math.inf:
            raise HardwareError(f"{self.name}: flow can never complete")
        self._expected_finishers = expected
        timer = Timeout(self.sim, delay, self._timer_generation)
        timer.callbacks.append(self._on_timer)

    def _on_timer(self, timer):
        if timer._value == self._timer_generation:
            self._settle(force_finish=self._expected_finishers)


# -- the property ----------------------------------------------------------

TAGS = ("a", "b")
#: Off the arrival grid, so a sample never ties with an arrival.
SAMPLE_TIMES = (0.0437, 0.3011, 1.7093, 4.1301, 9.1301)

_arrivals = st.one_of(
    st.sampled_from([0.0, 0.0, 0.001, 0.25, 0.25, 0.5, 1.0, 3.0]),
    st.floats(min_value=0.0, max_value=6.0))
#: (server, size): 0 is the CPU (cpu-seconds), 1 the link (bytes).
_work = st.one_of(
    st.tuples(st.just(0), st.sampled_from([0, 1e-10, 0.01, 0.25, 1.0, 2.5])),
    st.tuples(st.just(1), st.sampled_from([0, 1, 512, 4096, 65536,
                                           1_000_000])))
_ops = st.lists(
    st.tuples(_arrivals, _work, st.sampled_from(TAGS),
              # chain a follow-up of the same size on completion, on the
              # CPU, on the link, or not at all
              st.sampled_from([None, 0, 1])),
    min_size=1, max_size=16)


def _observe(ops, cores, server_class):
    """Run *ops*; return (completions in order, sampled counters,
    events processed)."""
    sim = Simulator()
    servers = (server_class(sim, capacity=cores, per_flow_cap=1.0,
                            name="cpu"),
               server_class(sim, capacity=85 * 1024.0, name="link"))
    completions = []

    def start(index, server, work, tag, chain):
        def completed(event):
            completions.append((index, sim.now, event.value))
            if chain is not None:
                start(index + 100, chain, work, tag, None)
        servers[server].submit(work, tags=("all", tag)).add_callback(
            completed)

    for index, (at, (server, work), tag, chain) in enumerate(ops):
        sim.timeout(at).add_callback(
            lambda _e, i=index, s=server, w=work, t=tag, c=chain:
            start(i, s, w, t, c))

    samples = []

    def sample(_event=None):
        samples.append(tuple(server.cumulative(tag) for server in servers
                             for tag in ("all",) + TAGS))

    for at in SAMPLE_TIMES:
        sim.timeout(at).add_callback(sample)
    sim.run()
    sample()
    return completions, samples, sim.events_processed


@settings(max_examples=200, deadline=None)
@given(_ops, st.sampled_from([1, 2, 4]))
def test_server_matches_the_timer_and_settle_reference(ops, cores):
    new = _observe(ops, cores, FairShareServer)
    old = _observe(ops, cores, ReferenceServer)
    assert new[0] == old[0]  # same order, same instants, same values
    assert new[1] == old[1]  # same counters, mid-flight and final
    assert new[2] == old[2]  # same kernel events: a tick per timer
    assert len(new[0]) == len(ops) + sum(
        1 for *_, chain in ops if chain is not None)
