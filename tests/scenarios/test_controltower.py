"""Shape tests for the control-tower scenario (smoke-sized)."""

import json

import pytest

from repro.scenarios.controltower import run_controltower
from repro.telemetry.export import parse_prometheus_text


@pytest.fixture(scope="module")
def result():
    return run_controltower(smoke=True)


def test_alert_precedes_hard_breach(result):
    assert result.alert_at is not None
    assert result.breach_at is not None
    assert result.alert_at < result.breach_at
    assert result.alert_lead > 0
    # Both fire after the warm phase — faults cause them, not cold start.
    assert result.alert_at >= result.warm_until
    rows = {(r["slo"], r["objective"]): r for r in result.lead_time_rows()}
    assert rows[("fleet-availability", "availability")]["lead"] == \
        result.alert_lead


def test_hot_shard_detector_localizes_the_skewed_replica(result):
    assert result.hot_shard_localized
    assert result.detected_hot == result.hot_owner
    assert result.detected_at is not None
    # The ring owner of the hot service is what the detector must name.
    assert result.router.ring.owner(result.hot_service) == result.hot_owner
    imbalance = result.fleet_events.events("fleet.imbalance")
    assert imbalance and imbalance[0].get("replica") == result.hot_owner


def test_fleet_rollup_sees_the_skew(result):
    shares = result.tower.fleet.load_shares()
    ownership = result.router.ring.ownership()
    hot = result.hot_owner
    # The hot replica serves far more than its ring arc.
    assert shares[hot] > 2.0 * ownership[hot]
    assert sum(shares.values()) == pytest.approx(1.0)
    assert result.tower.fleet.merged_latency().count > 0


def test_prometheus_export_round_trips_with_replica_labels(result):
    samples = parse_prometheus_text(result.prometheus())
    inflight = [k for k in samples
                if k.startswith("repro_router_inflight{replica=")]
    assert inflight  # per-replica gauge children exist
    budget = [k for k in samples if k.startswith("repro_slo_budget{")]
    assert any('slo="fleet-availability"' in k for k in budget)


def test_chrome_trace_nests_replica_spans_under_router_hop(result):
    doc = json.loads(result.trace_json())
    hops = [e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "router:hop"]
    assert hops
    replicas = {e["args"].get("replica") for e in hops}
    assert replicas - {None}  # hops name the replica that served them
    # Replica-side spans below a hop inherit its replica without any
    # layer past the router knowing about sharding.
    inherited = [e for e in doc["traceEvents"]
                 if e["ph"] == "X" and e["name"].startswith(("server:",
                                                            "service:",
                                                            "gram:"))
                 and "replica" in e["args"]]
    assert inherited
    assert all(e["args"]["principal"] for e in inherited)


def test_profiler_reports_throughput_and_split(result):
    prof = result.tower.profiler
    assert prof.events_dispatched > 10_000
    assert prof.events_per_second() > 0
    assert 0.0 < prof.telemetry_fraction() < 0.5
    assert prof.simulation_seconds() > 0


def test_render_contains_the_dashboard_sections(result):
    text = result.render()
    assert "hot shard: detected=" in text
    assert "alert lead times" in text
    assert "slo_budget" in text
    assert "kernel profile:" in text
    assert "events/second" in text


def test_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        run_controltower(replicas=1)
    with pytest.raises(ValueError):
        run_controltower(workers=1)
