"""Shape tests for the replica scale-out sweep (smoke-sized)."""

import pytest

from repro.scenarios.scaleout import run_scaleout


@pytest.fixture(scope="module")
def result():
    return run_scaleout(smoke=True)


def test_smoke_sweep_shape(result):
    assert [int(r["replicas"]) for r in result.rows] == [1, 2]
    for row in result.rows:
        assert row["elapsed"] > 0
        assert row["throughput"] > 0
        assert row["p95"] >= row["mean"] > 0
    assert result.baseline_elapsed > 0
    assert result.routed_elapsed > 0


def test_adding_a_replica_helps_even_at_smoke_scale(result):
    assert result.speedup_at(2) > 1.0
    # The second replica actually took work: the router deviated from
    # the single hash owner and replicas materialized services.
    assert result.row_at(2)["rebalances"] > 0
    assert result.row_at(2)["materialized"] > 0


def test_a_cold_stage_halves_with_a_second_uplink(result):
    alone, paired, _four = result.cold_rows
    assert (alone["replicas"], paired["replicas"]) == (1, 2)
    assert paired["stage"] < 0.6 * alone["stage"]
    # Striping moves the same bytes: a few control bytes more, no copy.
    assert 0 <= paired["uplink"] - alone["uplink"] < 1024
    assert "cold stage vs replicas" in result.render()


def test_a_256kb_cold_stage_rides_all_four_uplinks(result):
    alone, _paired, four = result.cold_rows
    assert (four["size"], four["replicas"]) == (256 * 1024, 4)
    assert result.ok
    assert four["stage"] < 0.35 * alone["stage"]
    # Each range adds its own PUT's control bytes, under 2 KB apiece.
    assert 0 <= four["uplink"] - alone["uplink"] < 4 * 2048


def test_render_mentions_the_gates(result):
    text = result.render()
    assert "Replica scale-out" in text
    assert "router overhead" in text
    assert "speedup" in text


def test_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        run_scaleout(clients=0)
