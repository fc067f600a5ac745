"""The throughput ablation: determinism, the headline win, the render."""

import pytest

from repro.scenarios.throughput import run_throughput


def test_same_seed_is_run_to_run_deterministic():
    a = run_throughput(levels=(1, 4), rounds=2, seed=0)
    b = run_throughput(levels=(1, 4), rounds=2, seed=0)
    assert a.rows == b.rows  # every float, transfer and hit count


def test_cached_mode_cuts_mean_latency_at_eight_clients():
    result = run_throughput(levels=(8,))
    assert result.ok
    (row,) = result.rows
    # ok holds single-flight staging to one transfer for the level; the
    # baseline stages two waves of eight.
    assert row["base_transfers"] == 16.0
    assert row["cache_hits"] > 0


def test_reduction_grows_with_concurrency():
    result = run_throughput(levels=(1, 8))
    assert result.reduction_at(8) > result.reduction_at(1)


def test_smoke_mode_shrinks_the_sweep():
    result = run_throughput(smoke=True)
    assert len(result.rows) <= 2
    text = result.render()
    assert "Invocation throughput ablation" in text
    assert text.count("\n") >= 2 + len(result.rows)


def test_rejects_bad_rounds_and_unknown_level():
    with pytest.raises(ValueError):
        run_throughput(rounds=0)
    result = run_throughput(levels=(1,), smoke=True)
    with pytest.raises(KeyError):
        result.reduction_at(99)
