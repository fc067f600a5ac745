"""DB-tier scale-out ablation: smoke-mode gates and rendering."""

import pytest

from repro.scenarios.common import percentile
from repro.scenarios.dbscale import REPLICA_LAG, run_dbscale


@pytest.fixture(scope="module")
def smoke():
    return run_dbscale(seed=0, smoke=True)


def test_smoke_gates_pass(smoke):
    assert smoke.ok


def test_every_invocation_succeeds(smoke):
    for arm in (smoke.baseline, smoke.locked, smoke.scaled):
        assert arm.n_ok == arm.n == 4


def test_chunking_bounds_residency(smoke):
    assert smoke.scaled.fetches
    assert all(f["mode"] == "whole" for f in smoke.locked.fetches)


def test_replicas_serve_within_staleness_bound(smoke):
    assert smoke.scaled.max_behind <= REPLICA_LAG


def test_render_shape(smoke):
    text = smoke.render()
    assert "DB tier scale-out" in text
    assert "baseline" in text and "storm/locked" in text \
        and "storm/scaled" in text
    assert "gate: PASS" in text


def test_percentile_nearest_rank():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(values, 50.0) == 3.0
    assert percentile(values, 95.0) == 5.0
    assert percentile([7.0], 95.0) == 7.0
