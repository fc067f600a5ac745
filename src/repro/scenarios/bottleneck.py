"""Bottleneck analysis: §VIII.D's ranking, made quantitative.

The paper's discussion names the stack's bottlenecks in order — the
thin appliance uplink dominates large-file executions, the LRM queue
dominates busy sites, and the middleware's own overheads (DB, SOAP,
polling) fill the rest — but gives no per-layer numbers.  This scenario
produces them: it drives the Figure 7 workload (a ~5 MB executable
through the full discover → upload → submit → poll path) under one
traced :class:`~repro.core.context.RequestContext`, then feeds the
request's span tree, the event bus and the queue gauges to the
critical-path analyzer, printing a per-layer latency attribution table
(queueing vs transfer vs compute) whose rows reconcile with the
end-to-end latency.

``smoke=True`` shrinks the payload and job runtime so CI can run the
whole thing in a couple of seconds.
"""

from __future__ import annotations

from typing import Optional

from repro.core.context import RequestContext
from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig
from repro.scenarios.common import ScenarioEnv, standard_env
from repro.telemetry.critical_path import (
    BUS_KINDS, Attribution, analyze_request,
)
from repro.telemetry.events import bus
from repro.telemetry.gauges import gauges
from repro.units import KB, KBps, MB
from repro.workloads.executables import make_payload

__all__ = ["BottleneckResult", "run_bottleneck"]


class BottleneckResult:
    """Attribution + trace of one analyzed request."""

    def __init__(self, env: ScenarioEnv, ctx: RequestContext,
                 attribution: Attribution, file_bytes: int):
        self.env = env
        self.ctx = ctx
        self.attribution = attribution
        self.file_bytes = file_bytes

    @property
    def ok(self) -> bool:
        """The per-layer rows add up to the end-to-end latency."""
        return self.attribution.reconciles(tol=0.01)

    # -- report -------------------------------------------------------------

    def render(self) -> str:
        att = self.attribution
        lines = [
            "Bottleneck analysis — WS execution, "
            f"{self.file_bytes / MB(1):.1f} MB file (§VIII.D)",
            "=" * 60,
            f"request            : {att.request_id}",
            f"end-to-end latency : {att.total:.3f} s "
            f"({att.span_count} spans)",
            "",
            att.table(),
            "",
            "bottleneck ranking :",
        ]
        for i, (bucket, secs) in enumerate(att.ranked()[:5], 1):
            lines.append(f"  {i}. {bucket:<16} {secs:8.3f} s "
                         f"({secs / att.total * 100.0:.1f}%)")
        interesting = {name: peak
                       for name, peak in sorted(att.queue_peaks.items())
                       if peak > 0}
        if interesting:
            lines.append("")
            lines.append("queue/level peaks  :")
            for name, peak in interesting.items():
                lines.append(f"  {name:<32} {peak:g}")
        lines.append("")
        lines.append(f"reconciles to 1%   : {att.reconciles(tol=0.01)}")
        return "\n".join(lines)


def run_bottleneck(file_bytes: Optional[int] = None,
                   runtime_seconds: float = 90.0,
                   poll_interval: float = 9.0,
                   appliance_uplink: float = KBps(85),
                   seed: int = 0,
                   smoke: bool = False) -> BottleneckResult:
    """Run the traced Figure 7 workload and attribute its latency.

    *smoke* overrides the payload/runtime knobs with small values so
    the full pipeline finishes fast in CI.
    """
    if smoke:
        file_bytes = file_bytes or int(256 * KB(1))
        runtime_seconds = 10.0
        poll_interval = 3.0
    file_bytes = file_bytes or int(5 * MB(1))
    config = OnServeConfig(poll_interval=poll_interval)
    env = standard_env(appliance_uplink=appliance_uplink, config=config,
                       seed=seed)
    tb, stack, sim = env.testbed, env.stack, env.sim
    grid_events = bus(sim).record(*BUS_KINDS)

    payload = make_payload("fixed", size=file_bytes,
                           runtime=f"{runtime_seconds}",
                           output_bytes=str(int(KB(8))))
    sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "hotspot.bin", payload,
        description="bottleneck-analysis executable", params_spec=""))

    env.mark()
    # One explicit context for the whole workflow: the analyzer needs
    # the span tree, so the scenario owns the context instead of letting
    # discover_and_invoke mint a throwaway one.
    ctx = RequestContext.create(sim, principal=tb.user_hosts[0].name)
    sim.run(until=discover_and_invoke(stack, stack.user_clients[0],
                                      "Hotspot%", ctx=ctx))
    # Capacity history for the run's epilogue (feeds mds.history too).
    tb.mds.snapshot()

    attribution = analyze_request(ctx, bus=grid_events, board=gauges(sim))
    return BottleneckResult(env=env, ctx=ctx, attribution=attribution,
                            file_bytes=file_bytes)
