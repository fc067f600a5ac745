"""Fleet control tower: burn-rate alerts, hot shards, kernel profile.

The scale-out sweep (:mod:`~repro.scenarios.scaleout`) proved the
sharded fabric *scales*; this scenario proves it is *operable*.  An
8-replica fabric serves a deliberately skewed workload — most clients
hammer one hot service, whose consistent-hash owner replica therefore
melts — while the grid behind it suffers scheduled all-site outage
bursts.  An attached :class:`~repro.telemetry.fleet.ControlTower`
(SLO tracker + fleet rollup + hot-shard detector + kernel profiler)
must then demonstrate the two control-plane claims this PR makes:

* **burn-rate alerts lead hard violations** — the multi-window burn
  alert on the availability SLO fires at least one full fault-window
  before compliance over the long window actually drops below target
  (the Google-SRE argument: burn rate is the derivative of budget
  spend, so it moves long before the integral crosses), and
* **hot-shard detection localizes popularity skew** — the detector
  names the exact replica owning the hot service, by scoring observed
  per-replica load against ring-arc ownership (so vnode placement
  unevenness cannot masquerade as a hot key).

The run is three phases on one timeline: a *warm* phase of clean
traffic (this builds the error budget the breach math needs — with no
good history, total outages breach almost instantly and no alert can
lead), then a *fault* phase of repeating ``site.outage`` bursts over
every site, then a short drain.  Timing is compressed: the scenario
passes scaled-down :class:`~repro.telemetry.slo.BurnRule` windows
instead of the production 5m/1h/6h defaults, keeping the sim short
while preserving the ordering (warm-phase good traffic must exceed
``factor x long_window``, which it does by construction).

Outputs: the per-replica dashboard (load share vs ring ownership,
inflight, p95, faults, SLO budget), the alert/violation lead-time
table, the kernel profiler's events-per-second + telemetry-overhead
split, and the standard exports (``prometheus_text`` with
replica-labelled families, ``chrome_trace`` with router-hop parent
spans and replica/principal args).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.core.context import RequestContext
from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig
from repro.faults import FaultSpec
from repro.scenarios.common import standard_env
from repro.simkernel.events import Event
from repro.telemetry.events import bus
from repro.telemetry.export import chrome_trace, prometheus_text
from repro.telemetry.gauges import gauges
from repro.telemetry.slo import BurnRule, SloSpec
from repro.units import KB
from repro.workloads.executables import make_payload

__all__ = ["ControlTowerResult", "run_controltower"]


class ControlTowerResult:
    """One control-tower run: alert timeline + fleet view + kernel profile."""

    def __init__(self, tower, router, contexts: List[RequestContext],
                 metrics, event_bus, fleet_events, board,
                 requests: int, faulted: int,
                 fault_window: float, fault_starts: List[float],
                 hot_service: str, hot_owner: str,
                 warm_until: float, run_until: float):
        self.tower = tower
        self.router = router
        #: Traced request contexts (bounded sample for chrome_trace).
        self.contexts = contexts
        self.metrics = metrics
        self.bus = event_bus
        #: Every ``fleet.imbalance`` of the run (the ring keeps the newest).
        self.fleet_events = fleet_events
        self.board = board
        self.requests = requests
        self.faulted = faulted
        #: Length of one injected outage burst, in sim seconds.
        self.fault_window = fault_window
        self.fault_starts = fault_starts
        self.hot_service = hot_service
        #: The replica the hash ring assigns the hot service to — what
        #: the detector must name.
        self.hot_owner = hot_owner
        self.warm_until = warm_until
        self.run_until = run_until

    # -- the two claims ------------------------------------------------------

    @property
    def alert_at(self) -> Optional[float]:
        """First availability burn-rate alert (sim time)."""
        return self.tower.slo.first_transition("slo.burn", "fleet-availability")

    @property
    def breach_at(self) -> Optional[float]:
        """First hard availability violation (sim time)."""
        return self.tower.slo.first_transition("slo.violation",
                                               "fleet-availability")

    @property
    def alert_lead(self) -> Optional[float]:
        """Seconds the burn alert led the hard breach (None = no breach)."""
        if self.alert_at is None or self.breach_at is None:
            return None
        return self.breach_at - self.alert_at

    @property
    def alert_led_breach(self) -> bool:
        """Did the alert fire >= one full fault-window before the breach?"""
        lead = self.alert_lead
        return lead is not None and lead >= self.fault_window

    @property
    def detected_hot(self) -> Optional[str]:
        first = self.tower.detector.first_detection()
        return first[1] if first else None

    @property
    def detected_at(self) -> Optional[float]:
        first = self.tower.detector.first_detection()
        return first[0] if first else None

    @property
    def hot_shard_localized(self) -> bool:
        return self.detected_hot == self.hot_owner

    @property
    def ok(self) -> bool:
        return self.alert_led_breach and self.hot_shard_localized

    # -- lead-time table -----------------------------------------------------

    def lead_time_rows(self) -> List[Dict[str, object]]:
        """Per-objective alert/violation timeline (EXPERIMENTS.md table)."""
        rows = []
        slo = self.tower.slo
        for spec in slo.specs:
            for kind in ("availability", "latency"):
                if (spec.name, kind) not in slo._objectives:
                    continue
                alert = slo.first_transition("slo.burn", spec.name)
                breach = slo.first_transition("slo.violation", spec.name)
                rows.append({
                    "slo": spec.name, "objective": kind,
                    "alert_at": alert, "breach_at": breach,
                    "lead": (breach - alert
                             if alert is not None and breach is not None
                             else None),
                })
        return rows

    # -- exports -------------------------------------------------------------

    def prometheus(self) -> str:
        return prometheus_text(metrics=self.metrics, board=self.board,
                               bus=self.bus)

    def trace_json(self) -> str:
        return chrome_trace(self.contexts)

    # -- report --------------------------------------------------------------

    def render(self) -> str:
        title = (f"Control tower — 8-replica fabric, skewed load, "
                 f"{len(self.fault_starts)} x {self.fault_window:.0f}s "
                 f"all-site outage bursts")
        lines = [title, "=" * len(title), ""]

        budgets = {}
        if self.tower.slo is not None:
            avail = self.tower.slo.objective("fleet-availability",
                                             "availability")
            budget_text = f"{avail.budget_remaining():.1%}"
            budgets = {name: budget_text
                       for name in self.tower.fleet.replicas}
        ownership = self.router.ring.ownership()
        lines.append(self.tower.fleet.table(ownership=ownership,
                                            budgets=budgets))
        lines.append("")

        hot = self.detected_hot
        lines.append(
            f"hot shard: detected={hot or 'none'} "
            f"expected={self.hot_owner} (owner of {self.hot_service})"
            + (f" at t={self.detected_at:.0f}s" if hot else "")
            + f"  [{'OK' if self.hot_shard_localized else 'MISS'}]")
        lines.append("")

        lines.append("alert lead times (availability target breached by "
                     "injected outages):")
        lines.append(f"  {'slo':<20} {'objective':<13} {'alert':>8} "
                     f"{'breach':>8} {'lead':>8}")
        for row in self.lead_time_rows():
            fmt = lambda v: f"{v:.0f}s" if v is not None else "-"
            lines.append(f"  {row['slo']:<20} {row['objective']:<13} "
                         f"{fmt(row['alert_at']):>8} "
                         f"{fmt(row['breach_at']):>8} "
                         f"{fmt(row['lead']):>8}")
        lead = self.alert_lead
        lines.append(
            f"  availability alert led the hard breach by "
            + (f"{lead:.0f}s" if lead is not None else "(no breach)")
            + f" (>= one {self.fault_window:.0f}s fault window: "
            + f"{'yes' if self.alert_led_breach else 'NO'})")
        lines.append("")

        lines.append(self.tower.slo.table())
        lines.append("")

        share = (self.faulted / self.requests) if self.requests else 0.0
        lines.append(f"workload: {self.requests} invocations, "
                     f"{self.faulted} faulted ({share:.1%}); warm until "
                     f"t={self.warm_until:.0f}s, run until "
                     f"t={self.run_until:.0f}s")
        if self.tower.profiler is not None:
            lines.append("")
            lines.append("kernel profile:")
            for text in self.tower.profiler.report().splitlines():
                lines.append(f"  {text}")
        return "\n".join(lines)


def run_controltower(replicas: int = 8,
                     workers: Optional[int] = None,
                     period: Optional[float] = None,
                     warm: Optional[float] = None,
                     bursts: Optional[int] = None,
                     burst_length: float = 30.0,
                     burst_period: float = 150.0,
                     hot_fraction: float = 2 / 3,
                     seed: int = 0,
                     smoke: bool = False,
                     trace_sample: int = 12) -> ControlTowerResult:
    """Run the control-tower demonstration; returns the result handle.

    The burn-rate ordering is arithmetic, not luck: with availability
    target 0.95 (budget 0.05) and rules ``(30s/225s, x3)`` +
    ``(150s/1350s, x1.5)``, an all-site outage makes the short window
    go fully bad within seconds, and the x3 long window crosses during
    the *second* burst (~30s of bad in 225s > 3 x 0.05).  The hard
    violation needs cumulative bad over the 1350s compliance window to
    exceed 5%, which ``warm`` seconds of clean traffic hold off until
    the *third* burst — so the alert leads by roughly one burst period,
    several times the fault window.  Shrinking ``warm`` below
    ``factor x long_window`` destroys the ordering; the defaults keep
    3x headroom.
    """
    if smoke:
        workers = 6 if workers is None else workers
        period = 20.0 if period is None else period
        warm = 900.0 if warm is None else warm
        bursts = 2 if bursts is None else bursts
    workers = 12 if workers is None else workers
    period = 30.0 if period is None else period
    warm = 1200.0 if warm is None else warm
    bursts = 4 if bursts is None else bursts
    if workers < 2 or replicas < 2:
        raise ValueError("need >= 2 workers and >= 2 replicas")

    # Crisp failure semantics: no retries, no failover, breakers never
    # open — an invocation during an outage burst faults exactly once,
    # fast, so the good/bad request stream follows the burst windows
    # and the burn-rate arithmetic in the docstring holds.
    config = OnServeConfig(poll_interval=2.0,
                           retry_max_attempts=1,
                           failover_sites=0,
                           breaker_failure_threshold=10 ** 6)
    env = standard_env(config=config, sample_interval=None, seed=seed,
                       n_users=workers,
                       fabric=dict(replicas=replicas, router=True))
    sim, testbed, stack = env.sim, env.testbed, env.stack
    # Discovery/WSDL caches keep the UDDI inquiry service's owner
    # replica from absorbing one inquiry per round — after the first
    # round, server-side load is the *service* traffic the skew is in.
    stack.enable_client_caches()

    services = replicas
    payload = make_payload("fixed", size=int(KB(64)), runtime="2",
                           output_bytes=str(int(KB(4))))
    generated = [
        sim.run(until=stack.portal.upload_and_generate(
            testbed.user_hosts[0], f"tower{j:02d}.bin", payload))
        for j in range(services)]
    # Route on the *actual* generated name ("Tower00Service") — the
    # ring hashes full service names, not the discovery prefix.
    hot_service = generated[0].service_name
    hot_owner = stack.router.ring.owner(hot_service)

    rules = (BurnRule(30.0, 225.0, 3.0, "page"),
             BurnRule(150.0, 1350.0, 1.5, "ticket"))
    specs = [
        SloSpec("fleet-availability", service="Tower%",
                availability=0.95, compliance_window=1350.0),
        SloSpec(f"hot-{hot_service}", service=f"{hot_service}%",
                latency_target=60.0, latency_quantile=0.9,
                compliance_window=1350.0),
    ]
    fleet_events = bus(sim).record("fleet.imbalance")
    tower = stack.attach_control_tower(
        specs=specs, rules=rules, profiler=True,
        detector_window=300.0, detector_threshold=2.0,
        detector_min_samples=30, detector_check_every=16)

    t_start = sim.now
    warm_until = t_start + warm
    fault_starts = [warm_until + k * burst_period for k in range(bursts)]
    testbed.install_faults([
        FaultSpec("site.outage", target="*",
                  window=(start, start + burst_length))
        for start in fault_starts])
    run_until = fault_starts[-1] + burst_length + 60.0

    hot_workers = max(1, round(hot_fraction * workers))
    latencies: List[float] = []
    outcomes: List[bool] = []
    contexts: List[RequestContext] = []

    def worker(i: int) -> Generator[Event, None, None]:
        client = stack.user_clients[i]
        if i < hot_workers:
            pattern = f"{hot_service}%"
        else:
            cold = 1 + (i - hot_workers) % (services - 1)
            pattern = f"Tower{cold:02d}%"
        slot = t_start + (i / workers) * period
        while slot < run_until:
            if sim.now < slot:
                yield sim.timeout(slot - sim.now)
            ctx = RequestContext.create(sim, principal=client.host.name)
            if len(contexts) < trace_sample:
                contexts.append(ctx)
            t_req = sim.now
            try:
                yield discover_and_invoke(stack, client, pattern, ctx=ctx)
                outcomes.append(True)
            except Exception:
                outcomes.append(False)
            latencies.append(sim.now - t_req)
            slot += period

    procs = [sim.process(worker(i), name=f"tenant:{i}")
             for i in range(workers)]
    sim.run(until=sim.all_of(procs))
    tower.slo.evaluate()
    tower.detector.check()
    tower.profiler.detach()

    return ControlTowerResult(
        tower, stack.router, contexts, stack.soap_server.metrics,
        bus(sim), fleet_events, gauges(sim),
        requests=len(outcomes), faulted=outcomes.count(False),
        fault_window=burst_length, fault_starts=fault_starts,
        hot_service=hot_service, hot_owner=hot_owner,
        warm_until=warm_until, run_until=run_until)
