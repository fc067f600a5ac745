"""Exporters: the observability plane in industry-standard formats.

Two wire formats cover the two halves of the plane:

* :func:`prometheus_text` renders metrics registries, gauge boards and
  event-bus counters in the Prometheus text exposition format
  (``# TYPE`` headers, cumulative ``_bucket`` series with ``le``
  labels, ``_count``/``_sum`` per histogram), so a run's numbers can be
  diffed or scraped with stock tooling.
* :func:`chrome_trace` serializes one or more request trace trees as
  Chrome ``trace_event`` JSON (``ph="X"`` complete events, microsecond
  ``ts``/``dur``), loadable in ``chrome://tracing`` / Perfetto for a
  visual per-request waterfall.

Both are pure functions over already-recorded state — exporting cannot
perturb a run any more than recording could.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Optional, Sequence

from repro.core.context import RequestContext
from repro.telemetry.events import EventBus
from repro.telemetry.gauges import GaugeBoard
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["prometheus_text", "parse_prometheus_text", "chrome_trace"]


def _sanitize(name: str) -> str:
    """A Prometheus-legal metric name from a dotted internal one."""
    out = []
    for ch in name:
        out.append(ch if (ch.isalnum() or ch == "_") else "_")
    text = "".join(out)
    if text and text[0].isdigit():
        text = "_" + text
    return text


def _escape_label(value: Any) -> str:
    """Prometheus label-value escaping (exposition format).

    Backslash, double quote and newline are the three characters the
    format requires escaping; anything else passes through.  Without
    this, a service or operation name containing any of them renders
    unparseable exposition text.
    """
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _fmt(value: float) -> str:
    """Prometheus sample value: integers without the trailing ``.0``."""
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_text(metrics: Optional[MetricsRegistry] = None,
                    board: Optional[GaugeBoard] = None,
                    bus: Optional[EventBus] = None) -> str:
    """Render the plane as Prometheus text exposition format.

    * Each :class:`~repro.telemetry.metrics.OperationMetrics` becomes a
      ``repro_request_latency_seconds`` histogram (cumulative buckets)
      plus a ``repro_request_faults_total`` counter, labelled by
      ``service`` and ``operation``.
    * Each gauge becomes ``repro_<name>`` with its current level.
    * Each event kind becomes a ``repro_events_total`` counter sample
      labelled by ``kind`` (exact totals, eviction-proof), and
      ``repro_events_dropped_total`` counts what the bus ring evicted.
    """
    lines: List[str] = []

    if metrics is not None and metrics.all():
        hist = "repro_request_latency_seconds"
        lines.append(f"# HELP {hist} SOAP request latency by operation.")
        lines.append(f"# TYPE {hist} histogram")
        for m in metrics.all():
            labels = (f'service="{_escape_label(m.service)}",'
                      f'operation="{_escape_label(m.operation)}"')
            h = m.latency
            cumulative = 0
            for bound, count in zip(h.bounds, h.counts):
                cumulative += count
                lines.append(f'{hist}_bucket{{{labels},le="{_fmt(bound)}"}} '
                             f"{cumulative}")
            lines.append(f'{hist}_bucket{{{labels},le="+Inf"}} {h.count}')
            lines.append(f"{hist}_count{{{labels}}} {h.count}")
            lines.append(f"{hist}_sum{{{labels}}} {_fmt(h.total)}")
        faults = "repro_request_faults_total"
        lines.append(f"# HELP {faults} SOAP faults by operation.")
        lines.append(f"# TYPE {faults} counter")
        for m in metrics.all():
            labels = (f'service="{_escape_label(m.service)}",'
                      f'operation="{_escape_label(m.operation)}"')
            lines.append(f"{faults}{{{labels}}} {m.faults}")

    if board is not None:
        # Group children by family: one HELP/TYPE header per family,
        # one (possibly labelled) sample per child — the shape a stock
        # Prometheus scraper expects for labelled series.
        families: Dict[str, List[Any]] = {}
        for key in board.names():
            gauge = board.get(key)
            families.setdefault(gauge.family, []).append(gauge)
        for family in sorted(families):
            children = families[family]
            metric = "repro_" + _sanitize(family)
            unit = (f" ({children[0].unit})" if children[0].unit else "")
            lines.append(f"# HELP {metric} Gauge {family}{unit}.")
            lines.append(f"# TYPE {metric} gauge")
            for gauge in children:
                if gauge.labels:
                    body = ",".join(
                        f'{_sanitize(k)}="{_escape_label(v)}"'
                        for k, v in sorted(gauge.labels.items()))
                    lines.append(f"{metric}{{{body}}} {_fmt(gauge.current)}")
                else:
                    lines.append(f"{metric} {_fmt(gauge.current)}")

    if bus is not None and bus.counts():
        events = "repro_events_total"
        lines.append(f"# HELP {events} Telemetry events by kind.")
        lines.append(f"# TYPE {events} counter")
        for kind in sorted(bus.counts()):
            lines.append(f'{events}{{kind="{_escape_label(kind)}"}} '
                         f"{bus.counts()[kind]}")
        dropped = "repro_events_dropped_total"
        lines.append(f"# HELP {dropped} Telemetry events the bus ring "
                     f"evicted.")
        lines.append(f"# TYPE {dropped} counter")
        lines.append(f"{dropped} {bus.dropped}")

    return "\n".join(lines) + ("\n" if lines else "")


_METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_NAME = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")


def _scan_labels(body: str, lineno: int, line: str) -> None:
    """Validate a ``{...}`` label body per the exposition format.

    Label values must be double-quoted with ``\\``, ``\"`` and ``\\n``
    as the only legal escapes; an unescaped quote or backslash inside a
    value, a bad escape, or a missing closing quote all raise.  This is
    the teeth behind :func:`_escape_label` — text rendered without
    escaping no longer slips through the parser.
    """

    def fail(why: str) -> ValueError:
        return ValueError(f"line {lineno}: {why}: {line!r}")

    pos = 0
    while pos < len(body):
        match = _LABEL_NAME.match(body, pos)
        if match is None:
            raise fail("bad label name")
        pos = match.end()
        if pos >= len(body) or body[pos] != "=":
            raise fail("label missing '='")
        pos += 1
        if pos >= len(body) or body[pos] != '"':
            raise fail("label value not quoted")
        pos += 1
        closed = False
        while pos < len(body):
            ch = body[pos]
            if ch == "\\":
                if pos + 1 >= len(body) or body[pos + 1] not in ('\\', '"', "n"):
                    raise fail("bad escape in label value")
                pos += 2
                continue
            if ch == '"':
                closed = True
                pos += 1
                break
            pos += 1
        if not closed:
            raise fail("unterminated label value")
        if pos < len(body):
            if body[pos] != ",":
                raise fail("unescaped quote in label value")
            pos += 1
            if pos >= len(body):
                raise fail("trailing comma in labels")


def parse_prometheus_text(text: str) -> Dict[str, float]:
    """Parse exposition text back into ``{sample-name{labels}: value}``.

    A deliberately strict reader used by tests and the CI smoke step:
    it raises ``ValueError`` on any line that is neither a comment nor
    a well-formed sample — including label values with unescaped
    quotes or backslashes — so "does the exporter output parse?" is a
    one-call check.
    """
    samples: Dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.rsplit(" ", 1)
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: not a sample: {line!r}")
        name, value = parts
        match = _METRIC_NAME.match(name)
        if match is None:
            raise ValueError(f"line {lineno}: bad sample name: {line!r}")
        rest = name[match.end():]
        if rest:
            if not (rest.startswith("{") and rest.endswith("}")):
                raise ValueError(f"line {lineno}: unbalanced labels: {line!r}")
            _scan_labels(rest[1:-1], lineno, line)
        try:
            samples[name] = float("inf") if value == "+Inf" else float(value)
        except ValueError:
            raise ValueError(f"line {lineno}: bad value: {line!r}") from None
    return samples


def chrome_trace(contexts: Sequence[RequestContext],
                 time_scale: float = 1e6) -> str:
    """Serialize request traces as Chrome ``trace_event`` JSON.

    Each request becomes one thread (``tid``) in a single process; each
    closed span becomes a ``ph="X"`` complete event with microsecond
    ``ts``/``dur`` (sim seconds x *time_scale*) and its meta as
    ``args``.  Open spans are skipped — a trace viewer cannot render
    events of unknown duration.

    Fleet attribution rides on every event: ``args.principal`` is the
    request's principal, and ``args.replica`` is inherited from the
    nearest ancestor span that recorded one (the ``router:hop`` /
    ``router:route`` spans), so replica-side spans of a routed request
    carry the replica that served them without each layer knowing about
    sharding.
    """
    events: List[Dict[str, Any]] = []
    for tid, ctx in enumerate(contexts, 1):
        events.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": f"{ctx.request_id} ({ctx.principal})"},
        })
        # replica inherited along the DFS path, indexed by depth.
        inherited: List[Optional[str]] = []
        for depth, node in ctx.root.walk():
            del inherited[depth:]
            replica = node.meta.get("replica") or (
                inherited[depth - 1] if depth else None)
            inherited.append(replica)
            if not node.closed:
                continue
            args: Dict[str, Any] = {k: v for k, v in sorted(node.meta.items())}
            args["principal"] = ctx.principal
            if replica is not None:
                args["replica"] = replica
            events.append({
                "name": node.name,
                "cat": node.name.split(":", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": node.start * time_scale,
                "dur": node.duration * time_scale,
                "args": args,
            })
    return json.dumps({"traceEvents": events,
                       "displayTimeUnit": "ms"}, indent=1)
