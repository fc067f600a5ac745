"""Fleet control tower: burn-rate alerts, hot shards, kernel profile.

The scale-out sweep (:mod:`~repro.scenarios.scaleout`) proved the
sharded fabric *scales*; this scenario proves it is *operable*.  An
8-replica fabric serves a deliberately skewed workload — most clients
hammer one hot service, whose consistent-hash owner replica therefore
melts — while the grid behind it suffers scheduled all-site outage
bursts.  The run records its ``ws.request`` stream, and two replays
over that recording must demonstrate the two control-plane claims:

* **burn-rate alerts lead hard violations** (:func:`first_burn_and_breach`)
  — the multi-window burn alert on the availability objective fires at
  least one full fault-window before compliance over the long window
  actually drops below target (the Google-SRE argument: burn rate is
  the derivative of budget spend, so it moves long before the integral
  crosses), and
* **hot-shard detection localizes popularity skew** (:func:`first_hot`)
  — the detector names the exact replica owning the hot service, by
  scoring observed per-replica load against ring-arc ownership (so
  vnode placement unevenness cannot masquerade as a hot key).

Both replays walk the recorded events in emission order and evaluate
at each event's ``ts`` exactly what a live observer subscribed to the
bus would have evaluated inside the emitter's frame, then take one
last step at the end of the run — so a replay's instants are the live
ones, not an approximation (DESIGN.md §12).

The run is three phases on one timeline: a *warm* phase of clean
traffic (this builds the error budget the breach math needs — with no
good history, total outages breach almost instantly and no alert can
lead), then a *fault* phase of repeating ``site.outage`` bursts over
every site, then a short drain.  Timing is compressed: the burn rule
uses 30 s/225 s windows instead of the production 5m/1h pair, keeping
the sim short while preserving the ordering (warm-phase good traffic
must exceed ``factor x long_window``, which it does by construction).

Outputs: the per-replica table (load share vs ring ownership, faults),
the alert/violation lead time, the kernel profiler's events-per-second
+ telemetry-overhead split, and the standard exports
(``prometheus_text`` with replica-labelled families, ``chrome_trace``
with router-hop parent spans and replica/principal args).
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from typing import (
    Callable, Dict, Generator, List, Optional, Sequence, Tuple,
)

from repro.core.context import RequestContext
from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig
from repro.faults import FaultSpec
from repro.scenarios.common import standard_env
from repro.simkernel.events import Event
from repro.telemetry.events import TelemetryEvent, bus
from repro.telemetry.export import chrome_trace, prometheus_text
from repro.telemetry.gauges import gauges
from repro.telemetry.profiler import KernelProfiler
from repro.units import KB
from repro.workloads.executables import make_payload

__all__ = ["ControlTowerResult", "run_controltower",
           "first_burn_and_breach", "first_hot", "served_by_replica"]


def first_burn_and_breach(events: Sequence[TelemetryEvent],
                          matches: Callable[[TelemetryEvent], bool],
                          target: float,
                          rule: Tuple[float, float, float],
                          compliance_window: float, min_samples: int,
                          end: float
                          ) -> Tuple[Optional[float], Optional[float]]:
    """First burn-alert and first hard-breach instants of an objective.

    *matches* picks the samples; a sample is bad when it faulted.  At
    each sample's ``ts`` (and once more at *end*) every window drops
    the samples at or before ``now - length``; the ``(short, long,
    factor)`` *rule* alerts when both windows burn the error budget
    ``1 - target`` at least *factor* times over, and the objective is
    breached once the compliance window holds *min_samples* samples and
    their good fraction is below *target*.  ``None`` = never.
    """
    stream = [ev for ev in events if matches(ev)]
    # bad[n]: faulted samples among the first n.
    bad = list(accumulate((ev.get("fault") is not None for ev in stream),
                          initial=0))
    short, long_, factor = rule
    lengths = (short, long_, compliance_window)
    heads = [0, 0, 0]
    budget = 1.0 - target
    alert_at = breach_at = None
    steps = [(n, ev.ts) for n, ev in enumerate(stream, 1)]
    for n, now in steps + [(len(stream), end)]:
        fractions = []
        for w, length in enumerate(lengths):
            horizon = now - length
            while heads[w] < n and stream[heads[w]].ts <= horizon:
                heads[w] += 1
            total = n - heads[w]
            fractions.append((bad[n] - bad[heads[w]]) / total
                             if total else 0.0)
        if (alert_at is None and fractions[0] / budget >= factor
                and fractions[1] / budget >= factor):
            alert_at = now
        if (breach_at is None and n - heads[2] >= min_samples
                and 1.0 - fractions[2] < target):
            breach_at = now
    return alert_at, breach_at


def first_hot(events: Sequence[TelemetryEvent],
              ownership: Dict[str, float], window: float,
              threshold: float, min_samples: int, check_every: int,
              end: float) -> Optional[Tuple[float, str]]:
    """``(ts, replica)`` of the first hot shard, or ``None``.

    Consistent hashing balances *keyspace*, not key *popularity*: one
    hot service lands all its requests on its single hash owner.
    Every *check_every* server-side requests (and once more at *end*)
    each replica is scored over the last *window* seconds as
    ``served_share / ring_ownership``; the first check holding at
    least *min_samples* whose top score reaches *threshold* names the
    hot replica.  Scoring against ownership, not ``1/N``, tells
    popularity skew from vnode placement unevenness.  *ownership* must
    hold at every check, so a recorded ``router.rebalance`` is an
    error.
    """
    served: List[Tuple[float, str]] = []
    for ev in events:
        if ev.kind == "router.rebalance":
            raise ValueError("ring ownership changed during the run")
        if ev.get("side") == "server" and ev.get("origin") is not None:
            served.append((ev.ts, ev.get("origin")))
    checks = [(n, ts) for n, (ts, _) in enumerate(served, 1)
              if n % check_every == 0]
    head = 0
    for n, now in checks + [(len(served), end)]:
        horizon = now - window
        while head < n and served[head][0] <= horizon:
            head += 1
        total = n - head
        if total < min_samples:
            continue
        counts = Counter(origin for _, origin in served[head:n])
        scores = {name: counts[name] / total / arc if arc > 0 else 0.0
                  for name, arc in ownership.items()}
        hottest = min(scores, key=lambda name: (-scores[name], name))
        if scores[hottest] >= threshold:
            return now, hottest
    return None


def served_by_replica(events: Sequence[TelemetryEvent]
                      ) -> Dict[str, Tuple[int, int]]:
    """``replica -> (calls, faults)`` over the server-side requests.

    A request is load on the replica named by its ``origin``; client-side
    requests and server-side ones without an origin count nowhere.
    """
    served: Dict[str, Tuple[int, int]] = {}
    for ev in events:
        origin = ev.get("origin")
        if ev.get("side") == "server" and origin is not None:
            calls, faults = served.get(origin, (0, 0))
            served[origin] = (calls + 1,
                              faults + (ev.get("fault") is not None))
    return served


class ControlTowerResult:
    """One control-tower run: alert timeline + fleet view + kernel profile."""

    def __init__(self, router, contexts: List[RequestContext],
                 metrics, event_bus, board, profiler: KernelProfiler,
                 served: Dict[str, Tuple[int, int]],
                 alert_at: Optional[float], breach_at: Optional[float],
                 hot: Optional[Tuple[float, str]],
                 requests: int, faulted: int,
                 fault_window: float, fault_starts: List[float],
                 hot_service: str, hot_owner: str,
                 warm_until: float, run_until: float, smoke: bool):
        self.router = router
        #: Traced request contexts (bounded sample for chrome_trace).
        self.contexts = contexts
        self.metrics = metrics
        self.bus = event_bus
        self.board = board
        self.profiler = profiler
        #: replica -> (server-side calls, faults) over the recording.
        self.served = served
        #: First availability burn-rate alert / hard violation (sim time).
        self.alert_at = alert_at
        self.breach_at = breach_at
        self.detected_at, self.detected_hot = hot or (None, None)
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
        self.smoke = smoke

    # -- the two claims ------------------------------------------------------

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
    def hot_shard_localized(self) -> bool:
        return self.detected_hot == self.hot_owner

    @property
    def ok(self) -> bool:
        """The hot shard is named; at full size the alert leads.  The
        smoke's two bursts leave it under one fault window."""
        return self.hot_shard_localized and (self.smoke
                                             or self.alert_led_breach)

    # -- exports -------------------------------------------------------------

    def prometheus(self) -> str:
        return prometheus_text(metrics=self.metrics, board=self.board,
                               bus=self.bus)

    def trace_json(self) -> str:
        return chrome_trace(self.contexts)

    # -- report --------------------------------------------------------------

    def replica_table(self) -> str:
        """Per-replica calls and faults, load share against ring arc."""
        ownership = self.router.ring.ownership()
        total = sum(calls for calls, _ in self.served.values())
        rows = [("replica", "calls", "share", "owned", "faults")]
        for name in sorted(self.served):
            calls, faults = self.served[name]
            rows.append((name, str(calls), f"{calls / total:.1%}",
                         f"{ownership.get(name, 0.0):.1%}", str(faults)))
        widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
        return "\n".join(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in rows)

    def render(self) -> str:
        title = (f"Control tower — 8-replica fabric, skewed load, "
                 f"{len(self.fault_starts)} x {self.fault_window:.0f}s "
                 f"all-site outage bursts")
        lines = [title, "=" * len(title), "", self.replica_table(), ""]

        hot = self.detected_hot
        lines.append(
            f"hot shard: detected={hot or 'none'} "
            f"expected={self.hot_owner} (owner of {self.hot_service})"
            + (f" at t={self.detected_at:.0f}s" if hot else "")
            + f"  [{'OK' if self.hot_shard_localized else 'MISS'}]")
        lines.append("")

        fmt = lambda v: f"{v:.0f}s" if v is not None else "-"
        lead = self.alert_lead
        lines.append("alert lead time (availability target breached by "
                     "injected outages):")
        lines.append(f"  {'alert':>8} {'breach':>8} {'lead':>8}")
        lines.append(f"  {fmt(self.alert_at):>8} {fmt(self.breach_at):>8} "
                     f"{fmt(lead):>8}")
        lines.append(
            f"  availability alert led the hard breach by "
            + (f"{lead:.0f}s" if lead is not None else "(no breach)")
            + f" (>= one {self.fault_window:.0f}s fault window: "
            + f"{'yes' if self.alert_led_breach else 'NO'})")
        lines.append("")

        share = (self.faulted / self.requests) if self.requests else 0.0
        lines.append(f"workload: {self.requests} invocations, "
                     f"{self.faulted} faulted ({share:.1%}); warm until "
                     f"t={self.warm_until:.0f}s, run until "
                     f"t={self.run_until:.0f}s")
        lines.append("")
        lines.append("kernel profile:")
        for text in self.profiler.report().splitlines():
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
    target 0.95 (budget 0.05) and the ``30s/225s x3`` rule, an
    all-site outage makes the short window go fully bad within
    seconds, and the long window crosses during the *second* burst
    (~30s of bad in 225s > 3 x 0.05).  The hard violation needs
    cumulative bad over the 1350s compliance window to exceed 5%,
    which ``warm`` seconds of clean traffic hold off until the *third*
    burst — so the alert leads by roughly one burst period, several
    times the fault window.  Shrinking ``warm`` below ``factor x
    long_window`` destroys the ordering; the defaults keep 3x headroom.
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

    recording = bus(sim).record("ws.request", "router.rebalance")
    profiler = KernelProfiler(sim).attach()

    t_start = sim.now
    warm_until = t_start + warm
    fault_starts = [warm_until + k * burst_period for k in range(bursts)]
    testbed.install_faults([
        FaultSpec("site.outage", target="*",
                  window=(start, start + burst_length))
        for start in fault_starts])
    run_until = fault_starts[-1] + burst_length + 60.0

    hot_workers = max(1, round(hot_fraction * workers))
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
            try:
                yield discover_and_invoke(stack, client, pattern, ctx=ctx)
                outcomes.append(True)
            except Exception:
                outcomes.append(False)
            slot += period

    procs = [sim.process(worker(i), name=f"tenant:{i}")
             for i in range(workers)]
    sim.run(until=sim.all_of(procs))
    profiler.detach()
    recording.close()

    events = recording.events()
    alert_at, breach_at = first_burn_and_breach(
        events,
        lambda ev: (ev.get("side") == "client"
                    and (ev.get("service") or "").startswith("Tower")),
        target=0.95, rule=(30.0, 225.0, 3.0), compliance_window=1350.0,
        min_samples=20, end=sim.now)
    hot = first_hot(events, stack.router.ring.ownership(), window=300.0,
                    threshold=2.0, min_samples=30, check_every=16,
                    end=sim.now)

    return ControlTowerResult(
        stack.router, contexts, stack.soap_server.metrics, bus(sim),
        gauges(sim), profiler, served_by_replica(events), alert_at,
        breach_at, hot,
        requests=len(outcomes), faulted=outcomes.count(False),
        fault_window=burst_length, fault_starts=fault_starts,
        hot_service=hot_service, hot_owner=hot_owner,
        warm_until=warm_until, run_until=run_until, smoke=smoke)
