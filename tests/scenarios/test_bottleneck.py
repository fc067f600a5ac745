"""Tests for the bottleneck-analysis scenario (§VIII.D, quantitative)."""

import pytest

from repro.scenarios import run_bottleneck


@pytest.fixture(scope="module")
def result():
    return run_bottleneck(smoke=True)


def test_attribution_reconciles_within_one_percent(result):
    att = result.attribution
    assert att.total > 0.0
    assert att.reconciles(tol=0.01)
    assert abs(att.unattributed) <= 0.01 * att.total


def test_attribution_covers_the_expected_buckets(result):
    att = result.attribution
    # A smoke-sized job still exercises transfer, grid compute and
    # middleware work; the ranking must be dominated by the grid side
    # (the job runs ~10 s against sub-second middleware steps).
    assert att.buckets["grid/transfer"] > 0.0
    assert att.buckets["grid/compute"] > 0.0
    assert att.buckets["core/compute"] > 0.0
    assert att.ranked()[0][0].startswith("grid/")


def test_event_bus_saw_every_layer(result):
    counts = result.env.sim._telemetry_bus.counts()
    for kind in ("ws.request", "core.invocation", "agent.submit",
                 "gram.submit", "gridftp.put", "sched.submit",
                 "sched.start", "sched.finish", "wal.append",
                 "core.service_generated", "agent.poll", "mds.snapshot"):
        assert counts.get(kind, 0) > 0, f"no {kind} events on the bus"


def test_events_correlate_by_request_id(result):
    b = result.env.sim._telemetry_bus
    rid = result.ctx.request_id
    correlated = b.events(request_id=rid)
    kinds = {ev.kind for ev in correlated}
    assert "gridftp.put" in kinds
    assert "gram.submit" in kinds


def test_queue_gauges_recorded_levels(result):
    peaks = result.attribution.queue_peaks
    assert any(name.startswith("gridftp.") and peak >= 1.0
               for name, peak in peaks.items())
    assert any(name.startswith("sched.") and peak >= 1.0
               for name, peak in peaks.items())
    assert peaks.get("db.wal_bytes", 0.0) > 0.0


def test_mds_snapshot_history_is_time_stamped(result):
    history = result.env.testbed.mds.history
    assert history
    ts, table = history[-1]
    assert ts == pytest.approx(result.env.sim.now)
    assert any("free_cores" in row for row in table)


def test_render_prints_the_attribution_table(result):
    text = result.render()
    assert "layer/category" in text
    assert "bottleneck ranking" in text
    assert "reconciles to 1%   : True" in text
