"""The chaos drill: invariants, shape, determinism (smoke-sized)."""

import copy

import pytest

from repro.scenarios import ChaosResult, run_chaos
from repro.scenarios.chaos import CRASH_WINDOWS


@pytest.fixture(scope="module")
def result():
    return run_chaos(smoke=True)


def test_smoke_drill_holds_every_invariant(result):
    assert result.ok, result.render()


def test_smoke_drill_shape(result):
    assert result.smoke
    assert result.kill == 1 and result.restart == 1
    assert result.restarted == result.crashed[:1]
    assert result.invocations == result.clients * result.rounds
    assert result.elapsed > 0 and result.calibration_elapsed > 0
    assert len(result.latencies) == result.invocations


def test_smoke_drill_is_deterministic():
    a = run_chaos(smoke=True)
    b = run_chaos(smoke=True)
    assert a.crashed == b.crashed
    assert a.detection_lags == b.detection_lags
    assert a.elapsed == b.elapsed
    assert a.latencies == b.latencies
    assert a.failovers == b.failovers


def test_render_mentions_the_gates(result):
    text = result.render()
    assert "Chaos drill" in text
    assert "zero lost requests" in text
    assert "no double execution" in text
    assert "detection lag bounded" in text
    assert "availability SLO held" in text
    assert "ALL INVARIANTS HOLD" in text


def test_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        run_chaos(kill=0)
    with pytest.raises(ValueError):
        run_chaos(replicas=2, kill=2)        # must leave a survivor
    with pytest.raises(ValueError):
        run_chaos(kill=2, restart=3)         # can't restart the living
    with pytest.raises(ValueError):
        run_chaos(kill=len(CRASH_WINDOWS) + 1)


def test_failed_gate_renders_fail(result):
    broken = ChaosResult(
        replicas=result.replicas, clients=result.clients,
        services=result.services, rounds=result.rounds,
        kill=result.kill, restart=result.restart,
        invocations=result.invocations, losses=[(0, "ReplicaDown")],
        latencies=result.latencies, elapsed=result.elapsed,
        calibration_elapsed=result.calibration_elapsed,
        crashed=result.crashed, restarted=result.restarted,
        rejoined=result.rejoined, detection_lags=result.detection_lags,
        detection_bound=result.detection_bound,
        slo_violated=result.slo_violated, failovers=result.failovers,
        inflight_killed=result.inflight_killed,
        requests_routed=result.requests_routed,
        submits=result.submits,
        seed=result.seed, smoke=result.smoke)
    assert not broken.ok
    assert broken.availability < 1.0
    assert "FAIL" in broken.render()


def test_a_request_submitted_twice_fails_the_gate(result):
    # Both passes send every invocation id to the grid exactly once.
    assert result.grid_submits == 2 * result.invocations
    broken = copy.copy(result)
    broken.submits = [dict(counts) for counts in result.submits]
    request_id = next(iter(broken.submits[1]))
    broken.submits[1][request_id] += 1
    assert not broken.exactly_once and not broken.ok
    text = broken.render()
    assert "FAIL  no double execution" in text
    assert (f"{result.grid_submits + 1} submits for "
            f"{result.grid_submits} invocations") in text
