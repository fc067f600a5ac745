"""Mixed notify/poll testbed: the event-driven job lifecycle ablation.

ROADMAP item 1 made flesh: a two-site testbed where one site's
gatekeeper supports push notifications (state changes ride the durable
:class:`~repro.grid.notify.NotifyQueue`) and the other "doesn't" —
TeraGrid heterogeneity — so every invocation lands on one rung of the
fallback ladder notify → PollMux → ``poll_until`` purely by site
capability.  Round-robin site selection splits N concurrent sleep-job
invocations evenly over both sites; runtimes are staggered so
completions spread out and the poll path's adaptive interval actually
backs off (its worst detection case).

Per site the harness reports:

* **detection lag** — ``core.output_detected`` minus the scheduler's
  ``sched.finish``, mean/p95.  On the notify site this is exactly one
  event-propagation delay; on the poll site it is bounded below by the
  poll floor and degrades with backoff.
* **poller exchanges** — batched ``poller.batch`` rounds attributable
  to the site.  ~0 on the notify site (the push path performs no
  tentative polls at all; only the final output fetch remains).
* **notifications** — messages the site's gatekeeper published, all of
  which must also be delivered (the queue drains to depth 0).

The acceptance bar (``NotifyResult.ok``, CI's gate): every invocation
succeeds, notify-site mean lag <= propagation + 0.1 s, notify-site
poller exchanges == 0, poll-site mean lag strictly worse, the queue
fully drained, and ``job_states`` rows exist only for notify-site jobs.
"""

from __future__ import annotations

from typing import Dict, Generator, List

from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig
from repro.grid.notify import JOB_STATES_TABLE
from repro.scenarios.common import percentile, standard_env
from repro.simkernel.events import Event
from repro.telemetry.events import bus
from repro.units import KB
from repro.workloads.executables import make_payload

__all__ = ["NotifyResult", "run_notify"]

#: The capability split: first testbed site pushes, second polls.
NOTIFY_SITE = "ncsa"
POLL_SITE = "sdsc"


class NotifyResult:
    """One mixed-capability run: per-site detection economics."""

    def __init__(self, propagation: float, n: int, n_ok: int,
                 per_site: Dict[str, Dict[str, float]],
                 published: int, delivered: int, depth: int,
                 state_rows: Dict[str, int]):
        self.propagation = propagation
        self.n = n
        self.n_ok = n_ok
        #: site -> jobs / lag_mean / lag_p95 / poller_batches /
        #: notifications / capable.
        self.per_site = per_site
        self.published = published
        self.delivered = delivered
        self.depth = depth
        #: site -> rows in the durable ``job_states`` table.
        self.state_rows = state_rows

    @property
    def notify_lag_mean(self) -> float:
        return self.per_site[NOTIFY_SITE]["lag_mean"]

    @property
    def poll_lag_mean(self) -> float:
        return self.per_site[POLL_SITE]["lag_mean"]

    @property
    def notify_poller_batches(self) -> int:
        return int(self.per_site[NOTIFY_SITE]["poller_batches"])

    @property
    def ok(self) -> bool:
        return (self.n_ok == self.n
                # Push detection: one propagation delay, nothing more.
                and self.notify_lag_mean <= self.propagation + 0.1
                # The push path performs zero tentative poll rounds.
                and self.notify_poller_batches == 0
                # The poll site actually polls, and pays for it in lag.
                and self.per_site[POLL_SITE]["poller_batches"] > 0
                and self.poll_lag_mean > self.notify_lag_mean
                # Durable queue drained; lifecycle rows only where the
                # capability exists.
                and self.depth == 0 and self.delivered == self.published
                and self.state_rows.get(NOTIFY_SITE, 0) > 0
                and self.state_rows.get(POLL_SITE, 0) == 0)

    def render(self) -> str:
        title = ("Event-driven job lifecycle — mixed notify/poll testbed "
                 f"({self.n} jobs, propagation {self.propagation:.1f}s)")
        lines = [title, "=" * len(title),
                 f"{'site':>6} {'mode':>7} {'jobs':>5} {'lag mean s':>11} "
                 f"{'lag p95 s':>10} {'poll rounds':>12} {'pushes':>7}"]
        for site in sorted(self.per_site):
            row = self.per_site[site]
            mode = "notify" if row["capable"] else "poll"
            lines.append(
                f"{site:>6} {mode:>7} {int(row['jobs']):>5} "
                f"{row['lag_mean']:>11.2f} {row['lag_p95']:>10.2f} "
                f"{int(row['poller_batches']):>12} "
                f"{int(row['notifications']):>7}")
        lines.append(
            f"queue: {self.published} published, {self.delivered} "
            f"delivered, depth {self.depth}; job_states rows: "
            + ", ".join(f"{s}={c}" for s, c in sorted(self.state_rows.items()))
            + f"; invocations ok {self.n_ok}/{self.n}")
        lines.append(f"gate: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def run_notify(n: int = 12, seed: int = 0,
               smoke: bool = False) -> NotifyResult:
    """Run the mixed-capability ablation; see the module docstring."""
    if smoke:
        n = 6
    config = OnServeConfig(datapath=True, notify=True,
                           notify_sites=(NOTIFY_SITE,),
                           site_policy="round_robin")
    env = standard_env(config=config, n_users=n, seed=seed,
                       n_sites=2, nodes_per_site=4, cores_per_node=8)
    stack, sim = env.stack, env.sim
    telemetry = bus(sim)

    finished: Dict[str, float] = {}
    detected: Dict[str, float] = {}
    telemetry.subscribe(
        lambda ev: finished.setdefault(ev.fields["job_id"], ev.ts),
        kinds=["sched.finish"])
    telemetry.subscribe(
        lambda ev: detected.setdefault(ev.fields["job_id"], ev.ts),
        kinds=["core.output_detected"])

    payload = make_payload("sleep", size=int(KB(64)))
    sim.run(until=stack.portal.upload_and_generate(
        env.testbed.user_hosts[0], "notify.bin", payload,
        params_spec="seconds:double"))
    env.mark()

    base_runtime = 10.0 if smoke else 25.0
    outputs: List[str] = []

    def invoke(i: int) -> Generator[Event, None, None]:
        out = yield discover_and_invoke(stack, stack.user_clients[i],
                                        "Notify%",
                                        seconds=base_runtime + 6.0 * i)
        outputs.append(out)

    procs = [sim.process(invoke(i), name=f"invoke:{i}") for i in range(n)]
    sim.run(until=sim.all_of(procs))

    lags: Dict[str, List[float]] = {}
    for job_id, at in detected.items():
        if job_id in finished:
            site = job_id.split("-job-")[0]
            lags.setdefault(site, []).append(at - finished[job_id])
    batches: Dict[str, int] = {}
    for ev in telemetry.events(kind="poller.batch"):
        site = ev.fields["name"]
        batches[site] = batches.get(site, 0) + 1

    queue = stack.onserve.notify_queue
    per_site: Dict[str, Dict[str, float]] = {}
    for site, gatekeeper in env.testbed.gatekeepers.items():
        site_lags = lags.get(site, [])
        if not site_lags:
            raise RuntimeError(f"notify scenario ran no jobs on {site} "
                               f"(round-robin should cover every site)")
        per_site[site] = {
            "jobs": float(len(site_lags)),
            "lag_mean": sum(site_lags) / len(site_lags),
            "lag_p95": percentile(site_lags, 95.0),
            "poller_batches": float(batches.get(site, 0)),
            "notifications": float(gatekeeper.notifications),
            "capable": queue.site_capable(site),
        }
    state_rows: Dict[str, int] = {}
    for row in stack.dbmanager.db.select(JOB_STATES_TABLE, lambda r: True):
        state_rows[row["site"]] = state_rows.get(row["site"], 0) + 1
    return NotifyResult(
        propagation=config.notify_propagation, n=n,
        n_ok=sum(1 for out in outputs if out == "slept\n"),
        per_site=per_site, published=queue.published,
        delivered=queue.delivered, depth=queue.depth,
        state_rows=state_rows)
