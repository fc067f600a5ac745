"""Datapath ablation scenario: determinism, criteria, rendering."""

import pytest

from repro.scenarios.common import percentile
from repro.scenarios.datapath import run_datapath


def test_acceptance_criteria_at_16_jobs():
    result = run_datapath(levels=(16,))
    assert result.control_reduction_at(16) >= 0.40
    assert result.cpu_reduction_at(16) >= 0.40
    assert result.lag_improved_at(16)


def test_sweep_is_deterministic():
    a = run_datapath(levels=(1, 4), smoke=False, seed=0)
    b = run_datapath(levels=(1, 4), smoke=False, seed=0)
    assert a.rows == b.rows
    assert a.repeat == b.repeat


def test_savings_grow_with_concurrency():
    result = run_datapath(levels=(2, 8, 16))
    reductions = [result.control_reduction_at(n) for n in (2, 8, 16)]
    assert reductions == sorted(reductions)
    # Batched p95 lag is bounded by the adaptive cap everywhere.
    for row in result.rows:
        assert row["batch_lag_p95"] <= 9.0 + 1.0


def test_smoke_levels_and_render():
    result = run_datapath(smoke=True)
    assert [int(r["n"]) for r in result.rows] == [1, 4]
    text = result.render()
    assert "data-path" in text
    assert text.count("\n") >= 3
    with pytest.raises(KeyError):
        result.control_reduction_at(99)
    # The repeat-invoke part: per-operation re-uploads every time,
    # datapath stages by content once and copies site to site once.
    base, batch = result.repeat["base"], result.repeat["batch"]
    assert (base["uploads"], base["replications"]) == (8, 0)
    assert (base["hits"], base["misses"]) == (0, 0)
    assert (batch["uploads"], batch["replications"]) == (1, 1)
    assert (batch["hits"], batch["misses"]) == (6, 2)
    assert result.ok and result.uplink_reduction >= 0.80
    assert "PASS" in text


def test_percentile_nearest_rank():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(values, 50.0) == 3.0
    assert percentile(values, 95.0) == 5.0
    assert percentile(values, 1.0) == 1.0
    assert percentile([7.0], 95.0) == 7.0
