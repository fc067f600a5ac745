"""Tests for the Prometheus and Chrome-trace exporters."""

import json

from repro.core.context import RequestContext
from repro.simkernel.kernel import Simulator
from repro.telemetry.events import bus
from repro.telemetry.export import (
    chrome_trace, parse_prometheus_text, prometheus_text,
)
from repro.telemetry.gauges import gauges
from repro.telemetry.metrics import MetricsRegistry

import pytest


def _populated_registry():
    reg = MetricsRegistry("test")
    reg.record("Svc", "execute", 0.05)
    reg.record("Svc", "execute", 1.5)
    reg.record("Svc", "execute", 0.3, fault="GridError")
    reg.record("Agent", "poll", 0.004)
    return reg


def test_prometheus_text_parses_and_counts_match():
    sim = Simulator(seed=0)
    reg = _populated_registry()
    board = gauges(sim)
    board.gauge("gram.anl.inflight", unit="reqs").set(3)
    b = bus(sim)
    b.emit("ws.request")
    b.emit("ws.request")
    b.emit("sched.start")

    text = prometheus_text(metrics=reg, board=board, bus=b)
    samples = parse_prometheus_text(text)

    labels = 'service="Svc",operation="execute"'
    assert samples[f"repro_request_latency_seconds_count{{{labels}}}"] == 3
    assert samples[f"repro_request_latency_seconds_sum{{{labels}}}"] == \
        pytest.approx(1.85)
    assert samples[f"repro_request_faults_total{{{labels}}}"] == 1
    assert samples["repro_gram_anl_inflight"] == 3
    assert samples['repro_events_total{kind="ws.request"}'] == 2
    assert samples['repro_events_total{kind="sched.start"}'] == 1
    assert samples["repro_events_dropped_total"] == 0


def test_prometheus_histogram_buckets_are_cumulative():
    text = prometheus_text(metrics=_populated_registry())
    samples = parse_prometheus_text(text)
    labels = 'service="Svc",operation="execute"'
    bounds = ["0.001", "0.01", "0.1", "1", "10", "60", "600", "+Inf"]
    counts = [samples[f'repro_request_latency_seconds_bucket'
                      f'{{{labels},le="{le}"}}'] for le in bounds]
    assert counts == sorted(counts)  # cumulative => non-decreasing
    assert counts[-1] == 3           # +Inf bucket equals the count


def test_prometheus_empty_inputs_export_nothing():
    assert prometheus_text() == ""
    assert parse_prometheus_text("") == {}


def test_parse_rejects_malformed_lines():
    for bad in ("justaname", "name{unbalanced 1", "name notanumber"):
        with pytest.raises(ValueError):
            parse_prometheus_text(bad)


def test_label_values_with_special_characters_round_trip():
    reg = MetricsRegistry("test")
    nasty = 'Back\\slash "quoted"\nnewline'
    reg.record(nasty, "exe\\cute", 0.5)
    sim = Simulator(seed=0)
    b = bus(sim)
    b.emit('kind "with" quotes')
    text = prometheus_text(metrics=reg, bus=b)
    # Escaped on render: one sample per line, strictly parseable.
    samples = parse_prometheus_text(text)
    esc = 'Back\\\\slash \\"quoted\\"\\nnewline'
    key = (f'repro_request_latency_seconds_count'
           f'{{service="{esc}",operation="exe\\\\cute"}}')
    assert samples[key] == 1
    assert samples['repro_events_total{kind="kind \\"with\\" quotes"}'] == 1


def test_parse_rejects_unescaped_label_values():
    for bad in (
        'm{k="a"b"} 1',          # unescaped quote inside the value
        'm{k="a\\x"} 1',         # unknown escape
        'm{k="open} 1',          # unterminated value
        'm{k=bare} 1',           # unquoted value
        'm{k="a",} 1',           # trailing comma
        'm{"k"="a"} 1',          # quoted label name
        'm{k="a";j="b"} 1',      # bad separator
    ):
        with pytest.raises(ValueError):
            parse_prometheus_text(bad)


def test_parse_accepts_escaped_and_multi_label_lines():
    ok = ('m{k="a\\\\b",j="c\\"d",l="e\\nf"} 2\n'
          'm2{le="+Inf"} 4\n')
    samples = parse_prometheus_text(ok)
    assert samples['m2{le="+Inf"}'] == 4


def _traced_context():
    sim = Simulator(seed=0)
    ctx = RequestContext.create(sim, principal="user")

    def op():
        outer = ctx.begin_span("client:Svc.execute")
        yield sim.timeout(1.0)
        inner = ctx.begin_span("gridftp:put", site="anl")
        yield sim.timeout(2.0)
        ctx.end_span(inner)
        yield sim.timeout(0.5)
        ctx.end_span(outer)
        ctx.begin_span("service:polling")  # left open deliberately

    sim.run(until=sim.process(op()))
    return ctx


def test_chrome_trace_loads_and_uses_complete_events():
    ctx = _traced_context()
    doc = json.loads(chrome_trace([ctx]))
    events = doc["traceEvents"]
    phases = {e["ph"] for e in events}
    assert phases <= {"X", "M"}  # complete events + thread metadata only
    x_events = [e for e in events if e["ph"] == "X"]
    by_name = {e["name"]: e for e in x_events}
    # Open spans are skipped; closed ones carry microsecond ts/dur.
    assert "service:polling" not in by_name
    put = by_name["gridftp:put"]
    assert put["ts"] == 1.0 * 1e6
    assert put["dur"] == 2.0 * 1e6
    assert put["args"] == {"site": "anl", "principal": "user"}
    assert put["cat"] == "gridftp"
    outer = by_name["client:Svc.execute"]
    assert outer["dur"] == 3.5 * 1e6
    assert outer["tid"] == put["tid"]  # one thread per request


def test_chrome_trace_multiple_requests_get_distinct_threads():
    a, b = _traced_context(), _traced_context()
    doc = json.loads(chrome_trace([a, b]))
    tids = {e["tid"] for e in doc["traceEvents"]}
    assert tids == {1, 2}
    names = [e["args"]["name"] for e in doc["traceEvents"]
             if e["name"] == "thread_name"]
    assert all("req-" in n for n in names)


def test_labelled_gauge_family_renders_one_header_and_round_trips():
    sim = Simulator(seed=0)
    board = gauges(sim)
    board.gauge("router.inflight", unit="reqs",
                labels={"replica": "appliance02"}).set(3)
    board.gauge("router.inflight", unit="reqs",
                labels={"replica": "appliance"}).set(1)
    board.gauge("plain.depth", unit="reqs").set(7)
    text = prometheus_text(board=board)
    # One TYPE header per family even with several labelled children.
    assert text.count("# TYPE repro_router_inflight gauge") == 1
    samples = parse_prometheus_text(text)
    assert samples['repro_router_inflight{replica="appliance"}'] == 1
    assert samples['repro_router_inflight{replica="appliance02"}'] == 3
    assert samples["repro_plain_depth"] == 7


def test_chrome_trace_inherits_replica_from_router_hop_ancestor():
    sim = Simulator(seed=0)
    ctx = RequestContext.create(sim, principal="tenant")

    def op():
        hop = ctx.begin_span("router:hop", router="router")
        yield sim.timeout(0.5)
        hop.meta["replica"] = "appliance03"
        inner = ctx.begin_span("invoke:Svc.execute")
        yield sim.timeout(1.0)
        leaf = ctx.begin_span("gram-submit", site="anl")
        yield sim.timeout(0.25)
        ctx.end_span(leaf)
        ctx.end_span(inner)
        ctx.end_span(hop)
        # A sibling *outside* the hop must not inherit its replica.
        after = ctx.begin_span("client:cleanup")
        ctx.end_span(after)

    sim.run(until=sim.process(op()))
    doc = json.loads(chrome_trace([ctx]))
    by_name = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
    assert by_name["router:hop"]["args"]["replica"] == "appliance03"
    # Descendants inherit without carrying their own replica meta.
    assert by_name["invoke:Svc.execute"]["args"]["replica"] == "appliance03"
    assert by_name["gram-submit"]["args"]["replica"] == "appliance03"
    assert by_name["gram-submit"]["args"]["site"] == "anl"
    assert "replica" not in by_name["client:cleanup"]["args"]
    # Principal rides on every event.
    assert all(e["args"]["principal"] == "tenant" for e in by_name.values())
