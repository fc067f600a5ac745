"""Fault matrix: every injectable failure mode × its recovery invariant.

The paper deploys onServe on a *production* grid (§VIII.A) where sites
really do refuse jobs, data channels really do abort, and proxies
really do expire.  This scenario drives the §VII.B execute workflow
through each failure mode the fault plane can arm
(:data:`~repro.faults.spec.FAULT_KINDS`) and checks the middleware's
resilience contract case by case:

* **recovery** — the request either completes within its deadline
  (after retry / backoff / circuit-breaking / site failover), or fails
  with the *correct* typed error for that fault;
* **hygiene** — after the run the simulation drains to an empty event
  queue and no process started by the workload is still alive (no
  orphaned pollers, no leaked retry timers);
* **determinism** — every case is executed twice from the same seed and
  the two resilience traces (``fault.injected`` / ``retry.attempt`` /
  ``breaker.transition`` / ``core.failover`` events, timestamps and
  payloads included) must be identical.

``smoke=True`` runs a representative subset for CI.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.context import RequestContext
from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig
from repro.errors import root_cause_name
from repro.faults import FaultSpec
from repro.scenarios.common import ScenarioEnv, standard_env
from repro.telemetry.events import bus
from repro.units import KB, MBps
from repro.workloads.executables import make_payload

__all__ = ["FaultCase", "CaseOutcome", "FaultsResult", "run_faults",
           "FAULT_CASES", "SMOKE_CASES", "RESILIENCE_KINDS"]

#: The event kinds whose run-twice equality defines "deterministic".
RESILIENCE_KINDS = ("fault.injected", "retry.attempt",
                    "breaker.transition", "core.failover")

#: Middleware knobs shared by every case: tight poll/backoff timings so
#: the matrix runs fast, and a breaker reset long enough that an opened
#: circuit stays open for the rest of the case.
_BASE_CONFIG = dict(poll_interval=2.0, watchdog_timeout=180.0,
                    retry_base_delay=1.0, retry_max_delay=4.0,
                    breaker_reset_timeout=3600.0)

#: With ``n_sites=3`` the testbed hosts ncsa/sdsc/anl; the round-robin
#: policy walks the *sorted* names, so "anl" is always the first pick —
#: which is how site-targeted cases are made deterministic.
_FIRST_RR_SITE = "anl"


class FaultCase:
    """One cell of the matrix: a fault to arm + the invariant to check."""

    __slots__ = ("name", "description", "specs", "config", "expected",
                 "inject_early", "runtime", "deadline", "invocations",
                 "min_counts")

    def __init__(self, name: str, description: str,
                 specs: Callable[[ScenarioEnv], List[FaultSpec]],
                 config: Optional[Dict[str, object]] = None,
                 expected: Optional[str] = None,
                 inject_early: bool = False,
                 runtime: float = 4.0,
                 deadline: float = 600.0,
                 invocations: int = 1,
                 min_counts: Optional[Dict[str, int]] = None):
        self.name = name
        self.description = description
        #: Fresh specs per run (``fires`` counters are mutable state).
        self.specs = specs
        #: :class:`OnServeConfig` overrides on top of ``_BASE_CONFIG``.
        self.config = dict(config or {})
        #: ``None`` — must recover; else the required root-cause name.
        self.expected = expected
        #: Install the faults *before* upload/generate (DB-phase cases).
        self.inject_early = inject_early
        self.runtime = runtime
        self.deadline = deadline
        #: Sequential invocations; the invariant applies to the last.
        self.invocations = invocations
        #: Per-event-kind minimum counts the run must have produced.
        self.min_counts = dict(min_counts or {})

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        want = "recover" if self.expected is None else self.expected
        return f"<FaultCase {self.name} -> {want}>"


FAULT_CASES: Tuple[FaultCase, ...] = (
    FaultCase(
        "gridftp-abort-recovers",
        "one mid-transfer abort; the upload retry succeeds in place",
        lambda env: [FaultSpec("gridftp.abort", max_fires=1)],
        min_counts={"fault.injected": 1, "retry.attempt": 1}),
    FaultCase(
        "gridftp-degrade-stall",
        "a degraded data channel stalls the transfer, then completes",
        lambda env: [FaultSpec("gridftp.degrade", duration=8.0,
                               max_fires=1)],
        min_counts={"fault.injected": 1}),
    FaultCase(
        "gram-refuse-retry",
        "one transient LRM rejection; backoff (with jitter) resubmits",
        lambda env: [FaultSpec("gram.refuse", max_fires=1)],
        config={"retry_jitter": 0.2},
        min_counts={"fault.injected": 1, "retry.attempt": 1}),
    FaultCase(
        "gram-lost-job-failover",
        "the LRM accepts then drops the job; polling surfaces "
        "JobNotFound and the invocation fails over to another site",
        lambda env: [FaultSpec("gram.lost_job", max_fires=1)],
        config={"status_supported": True},
        min_counts={"fault.injected": 1, "core.failover": 1,
                    "breaker.transition": 0}),
    FaultCase(
        "site-outage-failover",
        "the first-choice site is down for the whole run; staging "
        "fails there and the work lands on the next site",
        lambda env: [FaultSpec("site.outage", target=_FIRST_RR_SITE,
                               window=(0.0, 1e9))],
        config={"site_policy": "round_robin"},
        min_counts={"fault.injected": 1, "retry.attempt": 1,
                    "core.failover": 1}),
    FaultCase(
        "node-crash-resubmit",
        "a compute node dies mid-job; status polling sees the failed "
        "job and the invocation is resubmitted on another site",
        lambda env: [FaultSpec("node.crash", target=_FIRST_RR_SITE,
                               at=env.sim.now + 15.0)],
        config={"status_supported": True, "site_policy": "round_robin"},
        runtime=30.0,
        min_counts={"fault.injected": 1, "core.failover": 1}),
    FaultCase(
        "credential-expired-reauth",
        "the delegated proxy is invalidated mid-session; the retry "
        "hook re-authenticates through MyProxy",
        lambda env: [FaultSpec("security.credential_expired",
                               max_fires=1)],
        min_counts={"fault.injected": 1, "retry.attempt": 1}),
    FaultCase(
        "db-stall",
        "the embedded DB stalls once while storing the executable",
        lambda env: [FaultSpec("db.stall", duration=5.0, max_fires=1)],
        inject_early=True,
        min_counts={"fault.injected": 1}),
    FaultCase(
        "db-txn-error",
        "one aborted commit while storing; the store retry succeeds",
        lambda env: [FaultSpec("db.txn_error", max_fires=1)],
        inject_early=True,
        min_counts={"fault.injected": 1, "retry.attempt": 1}),
    FaultCase(
        "gram-refuse-permanent",
        "every gatekeeper refuses every submit; retries and failover "
        "exhaust and the typed SubmissionRefused surfaces",
        lambda env: [FaultSpec("gram.refuse")],
        expected="SubmissionRefused",
        min_counts={"retry.attempt": 2, "core.failover": 2}),
    FaultCase(
        "outage-all-sites",
        "the whole grid is down; staging fails everywhere and the "
        "typed TransferError surfaces",
        lambda env: [FaultSpec("site.outage", window=(0.0, 1e9))],
        expected="TransferError",
        min_counts={"core.failover": 2}),
    FaultCase(
        "breaker-fail-fast",
        "refusals open every site's breaker; the next invocation "
        "fails fast instead of queueing behind a broken grid",
        lambda env: [FaultSpec("gram.refuse")],
        config={"breaker_failure_threshold": 1, "retry_max_attempts": 1},
        expected="InvocationError",
        invocations=2,
        min_counts={"breaker.transition": 3}),
)

#: The CI subset: one retry-in-place, one jittered retry, one DB-phase
#: retry, one failover and one breaker case.
SMOKE_CASES = ("gridftp-abort-recovers", "gram-refuse-retry",
               "db-txn-error", "site-outage-failover",
               "breaker-fail-fast")


class CaseOutcome:
    """What one matrix cell actually did, checked against its contract."""

    __slots__ = ("name", "expected", "recovered", "root_cause", "roots",
                 "elapsed", "within_deadline", "injected", "counts",
                 "orphans", "drained", "drain_note", "deterministic",
                 "passed")

    def __init__(self, case: FaultCase, first: Dict[str, object],
                 deterministic: bool):
        self.name = case.name
        self.expected = case.expected
        self.recovered = first["recovered"]
        self.root_cause = first["root_cause"]
        self.roots = first["roots"]
        self.elapsed = first["elapsed"]
        self.within_deadline = first["within_deadline"]
        self.injected = first["injected"]
        self.counts = first["counts"]
        self.orphans = first["orphans"]
        self.drained = first["drained"]
        self.drain_note = first["drain_note"]
        self.deterministic = deterministic
        self.passed = self._check(case)

    def _check(self, case: FaultCase) -> bool:
        if case.expected is None:
            ok = self.recovered and self.within_deadline
        else:
            ok = (not self.recovered
                  and self.root_cause == case.expected)
        ok = ok and self.drained and not self.orphans
        ok = ok and self.deterministic
        for kind, floor in case.min_counts.items():
            ok = ok and self.counts.get(kind, 0) >= floor
        return ok

    @property
    def verdict(self) -> str:
        if self.recovered:
            return "recovered"
        return f"failed:{self.root_cause}"


class FaultsResult:
    """The whole matrix, rendered like the other scenario reports."""

    def __init__(self, outcomes: List[CaseOutcome], seed: int,
                 smoke: bool):
        self.outcomes = outcomes
        self.seed = seed
        self.smoke = smoke

    @property
    def ok(self) -> bool:
        return all(outcome.passed for outcome in self.outcomes)

    def outcome(self, name: str) -> CaseOutcome:
        for outcome in self.outcomes:
            if outcome.name == name:
                return outcome
        raise KeyError(name)

    def render(self) -> str:
        title = "Fault matrix — deterministic injection x recovery"
        if self.smoke:
            title += " (smoke subset)"
        lines = [title, "=" * 76,
                 f"{'case':<26} {'verdict':<25} {'s':>7} "
                 f"{'inj':>4} {'ret':>4} {'fo':>3}  det  result",
                 "-" * 76]
        for o in self.outcomes:
            lines.append(
                f"{o.name:<26} {o.verdict:<25} {o.elapsed:>7.1f} "
                f"{o.injected:>4} {o.counts.get('retry.attempt', 0):>4} "
                f"{o.counts.get('core.failover', 0):>3}  "
                f"{'yes' if o.deterministic else 'NO '}  "
                f"{'PASS' if o.passed else 'FAIL'}")
            if not o.passed:
                lines.append(f"  expected: "
                             f"{o.expected or 'recovery in deadline'}; "
                             f"orphans={o.orphans or 'none'}; "
                             f"drained={o.drained} {o.drain_note}")
        lines.append("-" * 76)
        held = sum(1 for o in self.outcomes if o.passed)
        lines.append(f"{held}/{len(self.outcomes)} invariants hold "
                     f"(seed {self.seed}); every case run twice and "
                     f"trace-compared")
        return "\n".join(lines)


# ---------------------------------------------------------------- driver

def _drain(sim, max_steps: int = 500_000) -> Tuple[bool, str]:
    """Run the queue to exhaustion; report if it would not empty."""
    steps = 0
    try:
        while sim.peek() != float("inf"):
            if steps >= max_steps:
                return False, f"(queue not empty after {max_steps} steps)"
            sim.step()
            steps += 1
    except Exception as exc:  # a leaked un-defused failure is itself a leak
        return False, f"({type(exc).__name__}: {exc})"
    return True, ""


def _run_once(case: FaultCase, seed: int) -> Dict[str, object]:
    """Build a fresh testbed, arm the case's faults, run the workload."""
    config = OnServeConfig(**{**_BASE_CONFIG, **case.config})
    env = standard_env(appliance_uplink=MBps(2), config=config, seed=seed,
                       n_sites=3, nodes_per_site=2, cores_per_node=4)
    tb, stack, sim = env.testbed, env.stack, env.sim
    resilience = bus(sim).record(*RESILIENCE_KINDS)
    payload = make_payload("fixed", size=int(64 * KB(1)),
                           runtime=f"{case.runtime}",
                           output_bytes=str(int(KB(2))))

    # Track every process the workload starts, so the epilogue can
    # assert none is still alive (orphaned pollers, leaked timers).
    started = []
    kernel_process = sim.process

    def tracked_process(generator, name: str = ""):
        proc = kernel_process(generator, name=name)
        started.append(proc)
        return proc

    sim.process = tracked_process  # type: ignore[method-assign]
    recovered, root, roots = False, "", []
    deadline_at = 0.0
    started_at = 0.0
    try:
        if case.inject_early:
            tb.install_faults(case.specs(env))
        sim.run(until=stack.portal.upload_and_generate(
            tb.user_hosts[0], "faulty.bin", payload,
            description="fault-matrix probe"))
        if not case.inject_early:
            tb.install_faults(case.specs(env))
        for _ in range(case.invocations):
            ctx = RequestContext.create(sim,
                                        principal=tb.user_hosts[0].name,
                                        deadline=sim.now + case.deadline)
            started_at = sim.now
            deadline_at = ctx.deadline
            try:
                sim.run(until=discover_and_invoke(
                    stack, stack.user_clients[0], "Faulty%", ctx=ctx))
                recovered, root = True, ""
            except Exception as exc:
                recovered, root = False, root_cause_name(exc)
            roots.append(root or "ok")
        finished_at = sim.now
    finally:
        sim.process = kernel_process  # type: ignore[method-assign]

    env.sampler.stop()
    env.fine_sampler.stop()
    drained, drain_note = _drain(sim)
    orphans = sorted(p.name or repr(p) for p in started if p.is_alive)

    plane = bus(sim)
    trace = tuple((round(ev.ts, 9), ev.kind, ev.request_id,
                   tuple(sorted(ev.fields.items())))
                  for ev in resilience.events())
    from repro.faults.injector import get_injector
    injector = get_injector(sim)
    return {
        "recovered": recovered,
        "root_cause": root,
        "roots": roots,
        "elapsed": finished_at - started_at,
        "within_deadline": recovered and finished_at <= deadline_at,
        "injected": injector.injected if injector else 0,
        "counts": plane.counts(),
        "orphans": orphans,
        "drained": drained,
        "drain_note": drain_note,
        "trace": trace,
    }


def run_faults(seed: int = 0, smoke: bool = False,
               cases: Optional[Tuple[str, ...]] = None) -> FaultsResult:
    """Run the matrix; each case twice, from the same seed, for the
    identical-trace determinism check."""
    wanted = cases if cases is not None else (
        SMOKE_CASES if smoke else tuple(c.name for c in FAULT_CASES))
    by_name = {c.name: c for c in FAULT_CASES}
    outcomes = []
    for name in wanted:
        case = by_name[name]
        first = _run_once(case, seed)
        second = _run_once(case, seed)
        deterministic = (first["trace"] == second["trace"]
                         and first["roots"] == second["roots"])
        outcomes.append(CaseOutcome(case, first, deterministic))
    return FaultsResult(outcomes, seed=seed, smoke=smoke)
