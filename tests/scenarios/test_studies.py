"""Shape-regression tests for the §VIII.B/§VIII.D studies."""

import pytest

from repro.scenarios import run_overhead, run_scalability, run_smallfiles
from repro.units import MB


@pytest.fixture(scope="module")
def upload_sweep():
    return run_scalability(workload="upload", network="fast",
                           levels=(1, 4), file_bytes=int(5 * MB(1)))


@pytest.fixture(scope="module")
def invoke_sweep():
    return run_scalability(workload="invoke", network="slow", levels=(1, 4))


def test_slow_net_invocations_bottleneck_on_network(invoke_sweep):
    """§VIII.D.2: a slow connection makes the network the bottleneck."""
    assert invoke_sweep.rows[-1]["net_load"] > 0.5


def test_cpu_and_memory_never_saturate(upload_sweep, invoke_sweep):
    """§VIII.D.1: 'The solution doesn't need a lot of CPU time nor a lot
    of memory ... neither of them should hence be the bottleneck.'"""
    for sweep in (upload_sweep, invoke_sweep):
        for row in sweep.rows:
            assert row["cpu_load"] < 0.85
            assert row["mem_load"] < 0.50
            assert sweep.bottleneck(row) not in ("cpu", "memory")


def test_concurrency_degrades_gracefully(invoke_sweep):
    """More simultaneous requests stretch the makespan (the §VIII.D.2
    'system's performance might suffer significantly' effect) while
    total throughput still rises."""
    first, last = invoke_sweep.rows[0], invoke_sweep.rows[-1]
    assert last["makespan"] > first["makespan"]
    assert last["throughput"] > first["throughput"]


def test_scalability_validation():
    with pytest.raises(ValueError):
        run_scalability(workload="nonsense")
    with pytest.raises(ValueError):
        run_scalability(network="carrier-pigeon")


def test_render_tables():
    sweep = run_scalability(workload="invoke", network="slow", levels=(1,))
    text = sweep.render()
    assert "bottleneck" in text and "network" in text


# ---------------------------------------------------------------- overhead

@pytest.fixture(scope="module")
def overhead():
    return run_overhead(runtimes=(10.0, 60.0, 300.0))


def test_overhead_shrinks_relative_to_runtime(overhead):
    """§VIII.B: overhead 'should be quite small compared to the runtime
    of a typical executable'."""
    assert overhead.rows[-1]["relative"] < 0.05  # for a 5-minute job


def test_overhead_absolute_is_bounded(overhead):
    for row in overhead.rows:
        assert 0.0 < row["added"] < 30.0


def test_overhead_render(overhead):
    assert "onServe" in overhead.render()


# ---------------------------------------------------------------- small files

@pytest.fixture(scope="module")
def smallfiles():
    return run_smallfiles(levels=(4, 8), runtime=20.0)


def test_small_files_per_job_cost_flat_or_improving(smallfiles):
    """§VIII.B: 'quite good in a scenario using a lot of relatively
    small files' — per-job cost must not grow with the job count."""
    per_job = [row["per_job"] for row in smallfiles.rows]
    assert per_job[-1] <= per_job[0] * 1.15


def test_small_files_beat_large_file_per_job(smallfiles):
    """The network limitation 'doesn't play a huge role' for small
    files, unlike the 5 MB case."""
    assert (smallfiles.large_file_row["makespan"]
            > 3 * smallfiles.rows[-1]["per_job"])


def test_small_files_render(smallfiles):
    assert "small files" in smallfiles.render()
