"""Chaos drill: kill replicas at peak load, lose nothing.

The self-healing contract (DESIGN.md §13) in one experiment: a routed
fabric of N stateless replicas runs a closed-loop client population,
and at the traffic peak the fault plane fail-stops ``kill`` of them —
heartbeats stop, in-flight requests die mid-exchange, new connections
are refused.  Later one of the corpses is restarted and must rejoin the
ring.  The drill holds the fabric to five invariants:

* **zero lost requests** — every client invocation completes; crashed
  in-flight work fails over to a preference-list survivor;
* **no double execution** — in each pass, every invocation id reaches
  the grid as exactly one ``gram.submit`` (a crashed replica's request
  dies with it, so only the survivor's attempt submits);
* **bounded detection** — for every crash, the gap between the crash
  instant (``fabric.replica_crash``) and the router's death declaration
  (``router.replica_dead``) is at most ``lease_ttl +
  2 * lease_check_interval`` — the slow path's worst case; the
  transport-fault fast path usually beats it by an order of magnitude;
* **availability SLO held** — of the drill's client-side SOAP calls
  (the recorded ``ws.request`` stream), at least 90% must be fault-free
  once there are 10 of them;
* **restart rejoins** — the restarted replica is back in the routing
  set at the end of the run.

``ChaosResult.ok`` also asks that the drill was not vacuous: the router
failed over at least once.

The drill runs twice: a *calibration* pass with no faults measures the
workload's natural span, then the *chaos* pass places the crash windows
at fixed fractions of it, so "at peak" stays true across parameter
changes.  Both passes are fully seeded — crash instants draw from the
``fault:replica.crash:<target>`` RNG streams — so the whole drill is
deterministic.  ``smoke=True`` shrinks the drill for CI.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.core.context import RequestContext
from repro.core.invocation import discover_and_invoke
from repro.errors import root_cause_name
from repro.faults import FaultSpec, fault_plane
from repro.scenarios.common import standard_env
from repro.simkernel.events import Event
from repro.telemetry.events import bus
from repro.units import KB
from repro.workloads.executables import make_payload

__all__ = ["ChaosResult", "run_chaos"]

#: Crash windows, as (start, end) fractions of the calibrated span —
#: the k-th killed replica dies somewhere inside the k-th window.
CRASH_WINDOWS = ((0.25, 0.35), (0.42, 0.52), (0.56, 0.64))

#: Restart instant, as a fraction of the calibrated span (after every
#: crash window has closed).
RESTART_AT = 0.72


class ChaosResult:
    """One chaos drill: workload numbers + the five invariants."""

    def __init__(self, *, replicas: int, clients: int, services: int,
                 rounds: int, kill: int, restart: int,
                 invocations: int, losses: List[Tuple[int, str]],
                 latencies: List[float], elapsed: float,
                 calibration_elapsed: float,
                 crashed: List[str], restarted: List[str],
                 rejoined: bool, detection_lags: Dict[str, float],
                 detection_bound: float, slo_violated: bool,
                 failovers: int,
                 inflight_killed: int, requests_routed: int,
                 submits: List[Dict[str, int]],
                 seed: int, smoke: bool):
        self.replicas = replicas
        self.clients = clients
        self.services = services
        self.rounds = rounds
        self.kill = kill
        self.restart = restart
        self.invocations = invocations
        #: (client index, root cause) of every invocation that failed.
        self.losses = losses
        self.latencies = latencies
        self.elapsed = elapsed
        self.calibration_elapsed = calibration_elapsed
        self.crashed = crashed
        self.restarted = restarted
        self.rejoined = rejoined
        #: replica -> seconds from crash to the router's declaration.
        self.detection_lags = detection_lags
        self.detection_bound = detection_bound
        self.slo_violated = slo_violated
        self.failovers = failovers
        self.inflight_killed = inflight_killed
        self.requests_routed = requests_routed
        #: Per pass (calibration, chaos): ``gram.submit`` count per
        #: request id, every invocation id present (0 if never submitted).
        self.submits = submits
        self.seed = seed
        self.smoke = smoke

    @property
    def lost(self) -> int:
        return len(self.losses)

    @property
    def completed(self) -> int:
        return self.invocations - self.lost

    @property
    def availability(self) -> float:
        return self.completed / self.invocations if self.invocations else 1.0

    @property
    def max_detection_lag(self) -> float:
        return max(self.detection_lags.values(), default=0.0)

    @property
    def grid_submits(self) -> int:
        return sum(sum(counts.values()) for counts in self.submits)

    @property
    def exactly_once(self) -> bool:
        """Each pass submitted each of its invocation ids exactly once."""
        return all(len(counts) == self.invocations
                   and all(n == 1 for n in counts.values())
                   for counts in self.submits)

    @property
    def detection_ok(self) -> bool:
        """Every crash was declared, within the lease-path worst case."""
        return (len(self.detection_lags) == len(self.crashed)
                and all(lag <= self.detection_bound
                        for lag in self.detection_lags.values()))

    @property
    def ok(self) -> bool:
        return (self.lost == 0
                and self.exactly_once
                and len(self.crashed) == self.kill
                and self.detection_ok
                # Not vacuous: the router actually failed over.
                and self.failovers >= 1
                and self.rejoined
                and not self.slo_violated)

    def render(self) -> str:
        title = (f"Chaos drill — kill {self.kill} of {self.replicas} "
                 f"replicas at peak, restart {self.restart}")
        if self.smoke:
            title += " (smoke)"
        mean = (sum(self.latencies) / len(self.latencies)
                if self.latencies else 0.0)
        gate = [
            ("zero lost requests",
             self.lost == 0,
             f"{self.completed}/{self.invocations} completed"),
            ("no double execution",
             self.exactly_once,
             f"{self.grid_submits} submits for "
             f"{len(self.submits) * self.invocations} invocations"),
            ("detection lag bounded",
             self.detection_ok,
             f"max {self.max_detection_lag:.1f}s "
             f"<= {self.detection_bound:.1f}s over "
             f"{len(self.detection_lags)} crash(es)"),
            ("restart rejoined",
             self.rejoined,
             ", ".join(self.restarted) or "none"),
            ("availability SLO held",
             not self.slo_violated,
             f"{100 * self.availability:.2f}% invocations good"),
        ]
        lines = [title, "=" * len(title),
                 f"workload: {self.clients} clients x {self.rounds} "
                 f"rounds over {self.services} services; "
                 f"{self.requests_routed} routed requests",
                 f"span: calibration {self.calibration_elapsed:.1f}s -> "
                 f"chaos {self.elapsed:.1f}s; mean invocation "
                 f"{mean:.1f}s",
                 f"crashes: {', '.join(self.crashed) or 'none'} "
                 f"({self.inflight_killed} in-flight killed, "
                 f"{self.failovers} failovers)",
                 "-" * len(title)]
        for name, held, note in gate:
            lines.append(f"  {'PASS' if held else 'FAIL'}  {name:<24} "
                         f"{note}")
        lines.append("-" * len(title))
        lines.append(f"{'ALL INVARIANTS HOLD' if self.ok else 'DRILL FAILED'}"
                     f" (seed {self.seed})")
        return "\n".join(lines)


def run_chaos(replicas: int = 8,
              clients: Optional[int] = None,
              services: Optional[int] = None,
              rounds: Optional[int] = None,
              file_bytes: Optional[int] = None,
              runtime: str = "4",
              kill: int = 2,
              restart: int = 1,
              lease_ttl: float = 12.0,
              lease_check_interval: float = 3.0,
              seed: int = 0,
              smoke: bool = False) -> ChaosResult:
    """Run the chaos drill (calibration pass + chaos pass)."""
    if smoke:
        replicas = min(replicas, 3)
        kill, restart = 1, 1
        clients = 6 if clients is None else clients
        services = 3 if services is None else services
        rounds = 2 if rounds is None else rounds
        file_bytes = int(KB(64)) if file_bytes is None else file_bytes
        runtime = "3"
    clients = 48 if clients is None else clients
    services = 8 if services is None else services
    rounds = 3 if rounds is None else rounds
    file_bytes = int(KB(128)) if file_bytes is None else file_bytes
    if kill < 1 or kill >= replicas:
        raise ValueError("kill must be in [1, replicas)")
    if not 0 <= restart <= kill:
        raise ValueError("restart must be in [0, kill]")
    if kill > len(CRASH_WINDOWS):
        raise ValueError(f"at most {len(CRASH_WINDOWS)} crash windows "
                         f"are defined")

    calibration = _one_run(replicas, clients, services, rounds, file_bytes,
                           runtime, lease_ttl, lease_check_interval,
                           seed, kill=0, restart=0, span=None)
    chaos = _one_run(replicas, clients, services, rounds, file_bytes,
                     runtime, lease_ttl, lease_check_interval,
                     seed, kill=kill, restart=restart,
                     span=calibration["elapsed"])
    return ChaosResult(
        replicas=replicas, clients=clients, services=services,
        rounds=rounds, kill=kill, restart=restart,
        invocations=chaos["invocations"], losses=chaos["losses"],
        latencies=chaos["latencies"], elapsed=chaos["elapsed"],
        calibration_elapsed=calibration["elapsed"],
        crashed=chaos["crashed"], restarted=chaos["restarted"],
        rejoined=chaos["rejoined"],
        detection_lags=chaos["detection_lags"],
        detection_bound=lease_ttl + 2 * lease_check_interval,
        slo_violated=chaos["slo_violated"],
        failovers=chaos["failovers"],
        inflight_killed=chaos["inflight_killed"],
        requests_routed=chaos["requests_routed"],
        submits=[calibration["submits"], chaos["submits"]],
        seed=seed, smoke=smoke)


def _one_run(replicas: int, clients: int, services: int, rounds: int,
             file_bytes: int, runtime: str, lease_ttl: float,
             lease_check_interval: float, seed: int, kill: int, restart: int,
             span: Optional[float]) -> Dict[str, object]:
    """One full pass; ``kill=0`` is the fault-free calibration."""
    env = standard_env(sample_interval=None, seed=seed, n_users=clients,
                       fabric=dict(
                           replicas=replicas, self_healing=True,
                           lease_ttl=lease_ttl,
                           lease_check_interval=lease_check_interval))
    sim, testbed, stack = env.sim, env.testbed, env.stack
    telemetry = bus(sim).record("ws.request", "fabric.replica_crash",
                                "router.replica_dead", "gram.submit")

    payload = make_payload("fixed", size=file_bytes, runtime=runtime,
                           output_bytes=str(int(KB(4))))
    for j in range(services):
        sim.run(until=stack.portal.upload_and_generate(
            testbed.user_hosts[0], f"chaos{j:02d}.bin", payload))

    t0 = sim.now
    latencies: List[float] = []
    losses: List[Tuple[int, str]] = []
    submits: Dict[str, int] = {}

    targets: List[str] = []
    restarted: List[str] = []
    extra_procs = []
    if kill:
        # Kill non-primary replicas (the shared DB tier rides the
        # primary host, and the drill is about the SOAP plane).
        primary = stack.onserves[0].replica
        targets = [name for name in stack.router.replicas()
                   if name != primary][:kill]
        specs = []
        for name, (lo, hi) in zip(targets, CRASH_WINDOWS):
            specs.append(FaultSpec("replica.crash", target=name,
                                   window=(t0 + lo * span, t0 + hi * span)))
        fault_plane(sim).configure(specs).install_fabric(stack)
        restarted = targets[:restart]

        def restarter() -> Generator[Event, None, None]:
            yield sim.timeout(t0 + RESTART_AT * span - sim.now,
                              name="chaos:restart")
            for name in restarted:
                stack.restart_replica(name)

        if restarted:
            extra_procs.append(sim.process(restarter(),
                                           name="chaos:restarter"))

    def worker(i: int) -> Generator[Event, None, None]:
        client = stack.user_clients[i]
        pattern = f"Chaos{i % services:02d}%"
        for _ in range(rounds):
            t_req = sim.now
            ctx = RequestContext.create(sim, principal=client.host.name)
            submits[ctx.request_id] = 0
            try:
                yield discover_and_invoke(stack, client, pattern, ctx=ctx)
            except Exception as exc:
                losses.append((i, root_cause_name(exc)))
            else:
                latencies.append(sim.now - t_req)

    procs = [sim.process(worker(i), name=f"client:{i}")
             for i in range(clients)]
    sim.run(until=sim.all_of(procs + extra_procs))
    elapsed = sim.now - t0

    crash_ts = {ev.get("replica"): ev.ts
                for ev in telemetry.events("fabric.replica_crash")}
    dead_ts = {}
    for ev in telemetry.events("router.replica_dead"):
        dead_ts.setdefault(ev.get("replica"), ev.ts)
    detection_lags = {name: dead_ts[name] - ts
                      for name, ts in crash_ts.items() if name in dead_ts}
    calls = [ev for ev in telemetry.events("ws.request")
             if ev.get("side") == "client"]
    faulted = sum(ev.get("fault") is not None for ev in calls)
    slo_violated = len(calls) >= 10 and 1.0 - faulted / len(calls) < 0.90
    inflight_killed = sum(ev.get("inflight_killed", 0)
                          for ev in telemetry.events("fabric.replica_crash"))
    rejoined = all(name in stack.router.replicas() for name in restarted)
    for ev in telemetry.events("gram.submit"):
        if ev.ts >= t0:
            submits[ev.request_id] = submits.get(ev.request_id, 0) + 1

    telemetry.close()
    stack.stop_self_healing()
    return {
        "invocations": clients * rounds,
        "losses": losses,
        "latencies": latencies,
        "elapsed": elapsed,
        "crashed": sorted(crash_ts),
        "restarted": restarted,
        "rejoined": rejoined,
        "detection_lags": detection_lags,
        "slo_violated": slo_violated,
        "failovers": stack.router.failovers,
        "inflight_killed": inflight_killed,
        "requests_routed": stack.router.requests_routed,
        "submits": submits,
    }
