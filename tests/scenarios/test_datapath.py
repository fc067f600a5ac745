"""Datapath ablation scenario: determinism, criteria, rendering."""

import pytest

from repro.scenarios.common import percentile
from repro.scenarios.datapath import (
    REPUBLISH_FILE_BYTES, _republish_invoke, run_datapath,
)


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
    assert a.republish == b.republish


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
    # GRAM control: a handshake per submit, or one per pooled channel.
    last = result.rows[-1]
    assert (last["base_submits"], last["base_handshakes"],
            last["base_pooled"]) == (4, 4, 0)
    assert (last["batch_submits"], last["batch_handshakes"],
            last["batch_pooled"]) == (4, 1, 3)
    assert last["batch_gram_ctl"] < last["base_gram_ctl"]
    assert "GRAM control @ N=4" in text


def test_the_first_invoke_after_a_republish_joins_its_seed():
    # The republish stages the new bytes where the old ones were; the
    # invoke that follows waits for that seed instead of sending them
    # again: one copy of the payload crosses the uplinks.
    part = _republish_invoke(seed=0)
    assert part["joined"] == 1
    assert REPUBLISH_FILE_BYTES <= part["uplink"] \
        < 1.10 * REPUBLISH_FILE_BYTES


def test_percentile_nearest_rank():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(values, 50.0) == 3.0
    assert percentile(values, 95.0) == 5.0
    assert percentile(values, 1.0) == 1.0
    assert percentile([7.0], 95.0) == 7.0
