"""Tests for the critical-path latency attribution analyzer."""

import pytest

from repro.core.context import RequestContext, TraceSpan
from repro.simkernel.kernel import Simulator
from repro.telemetry.critical_path import analyze_request
from repro.telemetry.events import bus


def _span(ctx, parent, name, start, end, **meta):
    node = TraceSpan(name, start, parent=parent)
    node.end = end
    node.meta.update(meta)
    return node


def _synthetic_request(sim):
    """A hand-built trace shaped like a real execute() request.

    request [0, 10]
      client:Svc.execute [0, 10]
        server:Svc.execute [1, 9]
          service:polling [2, 9] (job=j1)
            client:CyberaideAgent.fetchOutput [3, 4]
            client:CyberaideAgent.fetchOutput [6, 7]
    """
    ctx = RequestContext(sim, "req-synth")
    ctx.root.end = 10.0
    client = _span(ctx, ctx.root, "client:Svc.execute", 0.0, 10.0)
    server = _span(ctx, client, "server:Svc.execute", 1.0, 9.0)
    polling = _span(ctx, server, "service:polling", 2.0, 9.0, job="j1")
    _span(ctx, polling, "client:CyberaideAgent.fetchOutput", 3.0, 4.0)
    _span(ctx, polling, "client:CyberaideAgent.fetchOutput", 6.0, 7.0)
    return ctx


def test_self_time_partition_reconciles_exactly():
    sim = Simulator(seed=0)
    ctx = _synthetic_request(sim)
    att = analyze_request(ctx)
    assert att.total == 10.0
    # Without scheduler events, all polling idle time is core/queueing.
    assert att.buckets["core/queueing"] == pytest.approx(5.0)
    assert att.buckets["ws/transfer"] == pytest.approx(4.0)  # client spans
    assert att.buckets["ws/compute"] == pytest.approx(1.0)   # server span
    assert att.attributed == pytest.approx(att.total)
    assert att.reconciles(tol=0.01)


def test_polling_idle_splits_on_scheduler_events():
    sim = Simulator(seed=0)
    ctx = _synthetic_request(sim)
    b = bus(sim)
    # Forge the job lifecycle: queued 2.5 -> 5.0, ran 5.0 -> 6.5.
    for kind, ts in (("sched.submit", 2.5), ("sched.start", 5.0),
                     ("sched.finish", 6.5)):
        b.emit(kind, layer="grid", job_id="j1").ts = ts

    att = analyze_request(ctx, bus=b)
    # Idle gaps of the polling span: [2,3], [4,6], [7,9].
    # queue [2.5,5]  overlaps 0.5 + 1.0;  run [5,6.5] overlaps 1.0.
    assert att.buckets["grid/queueing"] == pytest.approx(1.5)
    assert att.buckets["grid/compute"] == pytest.approx(1.0)
    assert att.buckets["core/queueing"] == pytest.approx(2.5)
    assert att.attributed == pytest.approx(att.total)
    assert att.reconciles(tol=0.01)


def test_ranked_table_and_repr():
    sim = Simulator(seed=0)
    att = analyze_request(_synthetic_request(sim))
    ranked = att.ranked()
    assert ranked[0][0] == "core/queueing"
    assert [secs for _, secs in ranked] == \
        sorted((s for _, s in ranked), reverse=True)
    table = att.table()
    assert "layer/category" in table
    assert "total" in table
    assert "100.0%" in table


def test_open_spans_fall_back_to_root_end():
    sim = Simulator(seed=0)
    ctx = RequestContext(sim, "req-open")
    client = _span(ctx, ctx.root, "client:Svc.execute", 0.0, 8.0)
    # A span that never closed (e.g. the run ended mid-request).
    TraceSpan("gridftp:put", 2.0, parent=client)
    att = analyze_request(ctx)
    assert att.total == 8.0
    assert att.buckets["grid/transfer"] == pytest.approx(6.0)
    assert att.buckets["ws/transfer"] == pytest.approx(2.0)
    assert att.reconciles()


def test_empty_request_attributes_nothing():
    sim = Simulator(seed=0)
    ctx = RequestContext(sim, "req-empty")
    att = analyze_request(ctx)
    assert att.total == 0.0
    assert att.buckets == {}
    assert att.reconciles()


def test_concurrent_siblings_charge_only_the_chain_the_parent_waited_for():
    """Three ranges of a striped stage side by side under service:upload.

    request [0, 10]
      service:upload [1, 9]
        client:Agent.uploadRange [1, 6]        (the leader's own range)
          gridftp:put [2, 6]
        service:stripe [1, 8]                  (finishes last)
          client:Agent.uploadRange [1.5, 8]
            gridftp:put [3, 8]
        service:stripe [1, 5]
          gridftp:put [2, 5]
      service:submit [9, 10]

    Only the last-finishing branch is on the critical chain: 5 s of
    staging, not the 12 s the three puts add up to.
    """
    sim = Simulator(seed=0)
    ctx = RequestContext(sim, "req-striped")
    ctx.root.end = 10.0
    upload = _span(ctx, ctx.root, "service:upload", 1.0, 9.0)
    own = _span(ctx, upload, "client:Agent.uploadRange", 1.0, 6.0)
    _span(ctx, own, "gridftp:put", 2.0, 6.0)
    last = _span(ctx, upload, "service:stripe", 1.0, 8.0)
    call = _span(ctx, last, "client:Agent.uploadRange", 1.5, 8.0)
    _span(ctx, call, "gridftp:put", 3.0, 8.0)
    first = _span(ctx, upload, "service:stripe", 1.0, 5.0)
    _span(ctx, first, "gridftp:put", 2.0, 5.0)
    _span(ctx, ctx.root, "service:submit", 9.0, 10.0)
    att = analyze_request(ctx)
    assert att.buckets["grid/transfer"] == pytest.approx(5.0)
    assert att.buckets["ws/transfer"] == pytest.approx(1.5)
    # upload [8, 9] + the last stripe [1, 1.5] + submit [9, 10]
    assert att.buckets["core/compute"] == pytest.approx(2.5)
    assert att.buckets["ws/compute"] == pytest.approx(1.0)  # root [0, 1]
    assert att.attributed == att.total == 10.0
    assert att.reconciles(tol=0.0)


def test_a_sibling_reaching_back_before_the_last_one_is_charged_the_rest():
    """request [0, 10]: gridftp:put [0, 6] beside db:fetch [4, 10] — the
    fetch finished last and keeps [4, 10]; the put is charged [0, 4]."""
    sim = Simulator(seed=0)
    ctx = RequestContext(sim, "req-overlap")
    ctx.root.end = 10.0
    put = _span(ctx, ctx.root, "gridftp:put", 0.0, 6.0)
    _span(ctx, put, "agent:outputReady", 3.0, 6.0)
    _span(ctx, ctx.root, "db:fetch", 4.0, 10.0)
    att = analyze_request(ctx)
    assert att.buckets == {"grid/transfer": 3.0, "agent/transfer": 1.0,
                           "db/storage": 6.0}
    assert att.unattributed == 0.0

