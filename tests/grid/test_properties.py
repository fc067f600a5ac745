"""Property-based tests: RSL round-trips and scheduler invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import BatchScheduler, GridJob, JobDescription, JobState, rsl
from repro.grid.node import ComputeNode, NodePool
from repro.grid.rsl import generate_rsl, parse_rsl
from repro.simkernel import Simulator

safe_str = st.from_regex(r'[A-Za-z0-9_./ -]{1,20}', fullmatch=True)


@st.composite
def descriptions(draw):
    return JobDescription(
        executable="/" + draw(st.from_regex(r"[A-Za-z0-9_/.-]{1,20}",
                                            fullmatch=True)).strip("/"),
        arguments=draw(st.lists(safe_str, max_size=5)),
        count=draw(st.integers(1, 64)),
        max_wall_time=draw(st.integers(1, 10**6)),
        queue=draw(st.sampled_from(["normal", "debug", "long"])),
        stdout=draw(safe_str),
        stderr=draw(st.one_of(st.just(""), safe_str)),
        directory=draw(st.one_of(st.just(""), safe_str)),
        job_type=draw(st.sampled_from(["single", "mpi", "multiple"])),
        project=draw(st.one_of(st.just(""), safe_str)),
        environment=draw(st.lists(safe_str, max_size=3)),
        max_memory=draw(st.integers(0, 10**6)),
    )


@settings(max_examples=80)
@given(descriptions())
def test_rsl_roundtrip_property(desc):
    assert parse_rsl(generate_rsl(desc)) == desc


#: Values a caller may assign to a description's fields after it was
#: validated: ill-typed, out of range, or holding RSL's own syntax.
_odd_number = st.one_of(st.integers(-3, 10**6), st.booleans(),
                        st.floats(-5, 100, allow_nan=False),
                        st.text(max_size=4))
_odd_string = st.one_of(st.text(max_size=12), st.integers(-3, 3),
                        st.just(None), st.lists(safe_str, max_size=2))
_odd_list = st.one_of(st.lists(st.one_of(st.text(max_size=8),
                                         st.integers()), max_size=3),
                      st.text(max_size=4))
_ODD = {"count": _odd_number, "max_wall_time": _odd_number,
        "max_memory": _odd_number, "executable": _odd_string,
        "queue": _odd_string, "stdout": _odd_string,
        "stderr": _odd_string, "directory": _odd_string,
        "job_type": _odd_string, "project": _odd_string,
        "arguments": _odd_list, "environment": _odd_list}


def _outcome(fn):
    """What *fn* returns or raises, comparably."""
    try:
        return "ok", vars(fn())
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(descriptions(), st.dictionaries(st.sampled_from(sorted(_ODD)),
                                       st.none(), max_size=3), st.data())
def test_a_rendered_text_parses_as_a_cold_parse_of_it_would(desc, fields,
                                                            data):
    """``generate_rsl`` remembers what parsing its text yields; a parse
    answered from that memory returns, or raises, exactly what a parse
    of the bare text does, whatever was assigned to the description."""
    for name in fields:
        setattr(desc, name, data.draw(_ODD[name], label=name))
    before = dict(rsl._RENDERED)
    try:
        text = generate_rsl(desc)
    except Exception:
        assert rsl._RENDERED == before  # a refused rendering is not kept
        return
    remembered = text in rsl._RENDERED
    hit = _outcome(lambda: parse_rsl(text))
    rsl._RENDERED.pop(text, None)
    cold = _outcome(lambda: parse_rsl(text))
    assert hit == cold
    if not fields:
        assert remembered and hit == ("ok", vars(desc))


jobspecs = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=100),   # arrival
        st.integers(1, 8),                       # cores
        st.floats(min_value=0.1, max_value=50),  # runtime
        st.integers(1, 100),                     # walltime
    ),
    min_size=1, max_size=15,
)


@settings(max_examples=30, deadline=None)
@given(jobspecs, st.integers(4, 16))
def test_scheduler_invariants(specs, total_cores):
    """All jobs terminate; cores never oversubscribed; walltime respected."""
    sim = Simulator()
    pool = NodePool([ComputeNode("n", total_cores)])
    scheduler = BatchScheduler(sim, pool)
    jobs = []

    def submit_later(i, arrival, cores, runtime, walltime):
        yield sim.timeout(arrival)
        desc = JobDescription(executable="/x", count=min(cores, total_cores),
                              max_wall_time=walltime)
        job = GridJob(f"j{i}", desc, "/CN=t", sim.now)
        job.transition(JobState.STAGE_IN, sim.now)
        job.transition(JobState.PENDING, sim.now)
        jobs.append(job)
        finished = yield scheduler.submit(job, runtime)
        # Walltime enforcement: actual occupancy never exceeds walltime.
        occupancy = finished.finished_at - finished.started_at
        assert occupancy <= walltime + 1e-6
        if runtime > walltime:
            assert finished.state is JobState.FAILED
        else:
            assert finished.state is JobState.DONE
            assert occupancy == pytest.approx(runtime)

    for i, (arrival, cores, runtime, walltime) in enumerate(specs):
        sim.process(submit_later(i, arrival, cores, runtime, walltime))
    sim.run()
    assert len(jobs) == len(specs)
    assert all(j.is_terminal for j in jobs)
    assert pool.free_cores == total_cores  # everything released
    assert scheduler.queued_jobs == 0
    assert scheduler.running_jobs == 0


@settings(max_examples=30, deadline=None)
@given(jobspecs)
def test_fifo_head_never_delayed_by_backfill(specs):
    """EASY invariant: with vs without backfill, the queue head's start
    time (per arrival order) never gets worse than walltime-reservation
    predicts.  We verify the weaker, directly-checkable form: every job
    eventually starts and the pool empties."""
    sim = Simulator()
    pool = NodePool([ComputeNode("n", 8)])
    scheduler = BatchScheduler(sim, pool)

    def submit_later(i, arrival, cores, runtime, walltime):
        yield sim.timeout(arrival)
        desc = JobDescription(executable="/x", count=min(cores, 8),
                              max_wall_time=walltime)
        job = GridJob(f"j{i}", desc, "/CN=t", sim.now)
        job.transition(JobState.STAGE_IN, sim.now)
        job.transition(JobState.PENDING, sim.now)
        yield scheduler.submit(job, min(runtime, walltime))

    for i, spec in enumerate(specs):
        sim.process(submit_later(i, *spec))
    sim.run()
    assert scheduler.jobs_completed == len(specs)
