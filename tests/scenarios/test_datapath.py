"""Datapath ablation scenario: determinism, criteria, rendering."""

from repro.scenarios.common import percentile
from repro.scenarios.datapath import (
    REPUBLISH_FILE_BYTES, _republish_invoke, run_datapath,
)


def test_acceptance_criteria_at_16_jobs():
    result = run_datapath(n=16)
    per_op, pooled = result.gram["per-operation"], result.gram["datapath"]
    assert (per_op["submits"], per_op["handshakes"], per_op["pooled"]) \
        == (16, 16, 0)
    assert (pooled["submits"], pooled["handshakes"], pooled["pooled"]) \
        == (16, 1, 15)
    assert result.control_per_submit("datapath") \
        < result.control_per_submit("per-operation")
    assert result.ok


def test_sweep_is_deterministic():
    a = run_datapath(smoke=True, seed=0)
    b = run_datapath(smoke=True, seed=0)
    assert a.gram == b.gram
    assert a.repeat == b.repeat
    assert a.republish == b.republish
    assert a.render() == b.render()


def test_smoke_levels_and_render():
    result = run_datapath(smoke=True)
    assert result.n == 4
    text = result.render()
    assert "data-path" in text
    assert text.count("PASS") == 3 and "FAIL" not in text
    # The repeat-invoke part: per-operation re-uploads every time,
    # datapath stages by content once and copies site to site once.
    base, pooled = result.repeat["per-operation"], result.repeat["datapath"]
    assert (base["uploads"], base["replications"]) == (8, 0)
    assert (base["hits"], base["misses"]) == (0, 0)
    assert (pooled["uploads"], pooled["replications"]) == (1, 1)
    assert (pooled["hits"], pooled["misses"]) == (6, 2)
    assert result.ok and result.uplink_reduction >= 0.80
    # GRAM control: a handshake per submit, or one per pooled channel.
    base, pooled = result.gram["per-operation"], result.gram["datapath"]
    assert (base["submits"], base["handshakes"], base["pooled"]) == (4, 4, 0)
    assert (pooled["submits"], pooled["handshakes"], pooled["pooled"]) \
        == (4, 1, 3)
    assert pooled["gram_ctl"] < base["gram_ctl"]
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
