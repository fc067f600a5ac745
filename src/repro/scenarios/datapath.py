"""Grid data-path ablation: pay-per-operation vs batched/session mode.

The faithful grid control path pays per operation: a GSI handshake per
GridFTP transfer, a full gatekeeper exchange per tentative poll, and one
fixed-interval ``poll_until`` loop per in-flight job.  ``datapath`` mode
(PR 5) amortizes all three: one GridFTP control channel per (site,
credential), one batched ``pollOutputs`` exchange per site per round,
and an adaptive poll interval that backs off while nothing changes.

This sweep runs N concurrent sleep-job invocations against one site for
growing N, once per mode, and reports per level:

* **control bytes** — gatekeeper control traffic + GridFTP control
  channels + agent existence probes (plain byte counters on the
  endpoints; no simulated cost is added to read them);
* **gatekeeper head-node CPU** — the *modelled* per-exchange cost
  (``REQUEST_CPU`` per exchange + ``BATCH_ITEM_CPU`` per extra batched
  job), i.e. what a real gatekeeper would burn serving the exchanges;
* **completion-detection lag** — ``core.output_detected`` minus the
  scheduler's ``sched.finish``, mean/p50/p95 over the N jobs.

Job runtimes are staggered (``base + 6·i`` seconds) so completions
spread over time and the adaptive interval's snap-back actually matters.
The acceptance bar: at >= 16 concurrent jobs, batched mode cuts control
bytes *and* modelled head CPU by >= 40% while lowering mean lag.

A second, sequential part measures the plane's other half — staging by
content, once (DESIGN.md §10): one 256 KB executable invoked eight
times in a row over two sites.  Per-operation mode pushes the bytes
over the appliance uplink every time; ``datapath`` mode uploads them
once, copies them site to site once, and hits the store's row for the
rest.  Its bar (gated by ``--smoke`` and ``bench_datapath.py``): uplink
bytes down >= 80% with exactly one grid upload.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Sequence

from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig
from repro.scenarios.common import ScenarioEnv, percentile, standard_env
from repro.simkernel.events import Event
from repro.telemetry.events import bus
from repro.units import KB
from repro.workloads.executables import make_payload

__all__ = ["DatapathResult", "run_datapath"]


class DatapathResult:
    """One sweep: per-concurrency baseline-vs-batched measurements."""

    def __init__(self, rows: List[Dict[str, float]],
                 repeat: Dict[str, Dict[str, float]]):
        self.rows = rows
        #: The repeat-invoke part: mode ("base" | "batch") -> counts.
        self.repeat = repeat

    def _row(self, n: int) -> Dict[str, float]:
        for row in self.rows:
            if int(row["n"]) == n:
                return row
        raise KeyError(f"no concurrency level {n} in this sweep")

    def control_reduction_at(self, n: int) -> float:
        """Fractional control-byte reduction of batched mode at *n*."""
        row = self._row(n)
        return 1.0 - row["batch_ctl"] / row["base_ctl"]

    def cpu_reduction_at(self, n: int) -> float:
        """Fractional modelled head-CPU reduction at *n*."""
        row = self._row(n)
        return 1.0 - row["batch_cpu"] / row["base_cpu"]

    def lag_improved_at(self, n: int) -> bool:
        """True when batched mean detection lag beats the baseline."""
        row = self._row(n)
        return row["batch_lag_mean"] < row["base_lag_mean"]

    @property
    def uplink_reduction(self) -> float:
        """Fractional uplink-byte reduction of the repeat-invoke part."""
        return 1.0 - (self.repeat["batch"]["uplink"]
                      / self.repeat["base"]["uplink"])

    @property
    def ok(self) -> bool:
        return (self.uplink_reduction >= REPEAT_UPLINK_BAR
                and self.repeat["batch"]["uploads"] == 1)

    def render(self) -> str:
        title = ("Grid data-path ablation — per-operation vs "
                 "batched/session mode")
        lines = [title, "=" * len(title),
                 f"{'N':>3} {'ctl KB':>14} {'red':>6} {'head CPU s':>13} "
                 f"{'red':>6} {'lag mean s':>13} {'lag p95 s':>13}"]
        for row in self.rows:
            n = int(row["n"])
            lines.append(
                f"{n:>3} "
                f"{row['base_ctl'] / 1024:>6.1f}->{row['batch_ctl'] / 1024:<6.1f} "
                f"{100 * self.control_reduction_at(n):>5.1f}% "
                f"{row['base_cpu']:>6.2f}->{row['batch_cpu']:<5.2f} "
                f"{100 * self.cpu_reduction_at(n):>5.1f}% "
                f"{row['base_lag_mean']:>5.1f}->{row['batch_lag_mean']:<6.1f} "
                f"{row['base_lag_p95']:>5.1f}->{row['batch_lag_p95']:<6.1f}")
        lines += [
            "",
            f"Repeat invoke — {REPEAT_INVOKES} sequential invokes of one "
            f"{REPEAT_FILE_BYTES // 1024} KB executable over {REPEAT_SITES} "
            f"sites (round robin)",
            f"{'mode':<14} {'uplink KB':>10} {'grid uploads':>13} "
            f"{'replications':>13} {'staged hit/miss':>16}"]
        for label, mode in (("per-operation", "base"), ("datapath", "batch")):
            part = self.repeat[mode]
            lines.append(
                f"{label:<14} {part['uplink'] / 1024:>10.1f} "
                f"{part['uploads']:>13} {part['replications']:>13} "
                f"{part['hits']:>13}/{part['misses']}")
        lines.append(
            f"uplink bytes down {100 * self.uplink_reduction:.1f}% "
            f"(bar: >= {100 * REPEAT_UPLINK_BAR:.0f}% with one grid "
            f"upload): {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def run_datapath(levels: Sequence[int] = (1, 2, 4, 8, 16, 32),
                 seed: int = 0,
                 smoke: bool = False) -> DatapathResult:
    """Sweep per-site concurrency, baseline vs batched data path."""
    if smoke:
        levels = (1, 4)
    rows = []
    for n in levels:
        base = _one_mode(n, seed, batched=False, smoke=smoke)
        batch = _one_mode(n, seed, batched=True, smoke=smoke)
        rows.append({
            "n": float(n),
            "base_ctl": base["ctl"], "batch_ctl": batch["ctl"],
            "base_cpu": base["cpu"], "batch_cpu": batch["cpu"],
            "base_lag_mean": base["lag_mean"],
            "batch_lag_mean": batch["lag_mean"],
            "base_lag_p50": base["lag_p50"], "batch_lag_p50": batch["lag_p50"],
            "base_lag_p95": base["lag_p95"], "batch_lag_p95": batch["lag_p95"],
            "base_latency": base["latency"], "batch_latency": batch["latency"],
        })
    return DatapathResult(rows, {
        "base": _repeat_invoke(seed, batched=False),
        "batch": _repeat_invoke(seed, batched=True)})


#: The repeat-invoke part's shape (the same under ``--smoke``: eight
#: short jobs, and fewer would not amortize the one upload to the bar).
REPEAT_INVOKES = 8
REPEAT_FILE_BYTES = int(KB(256))
REPEAT_SITES = 2
#: ... and its bar: this share of the uplink bytes gone, one grid upload.
REPEAT_UPLINK_BAR = 0.80


def _repeat_invoke(seed: int, batched: bool) -> Dict[str, float]:
    """Sequential invokes of one executable, alternating two sites.

    Round robin, because "best" keeps an idle testbed on one site.
    Every count is one the system keeps for any reader: the agent's
    ``uploads`` / ``replications`` and the ``cache.hit`` / ``cache.miss``
    events of the staged-copy lookup.
    """
    config = OnServeConfig(datapath=batched, site_policy="round_robin")
    env = standard_env(config=config, seed=seed, n_sites=REPEAT_SITES)
    stack, sim = env.stack, env.sim
    sim.run(until=stack.portal.upload_and_generate(
        env.testbed.user_hosts[0], "repeat.bin",
        make_payload("echo", size=REPEAT_FILE_BYTES),
        params_spec="token:string"))
    [uplink] = env.testbed.network.route(stack.appliance_host.name,
                                         "wan-core")
    uplink0 = uplink.server.work_integral()
    for i in range(REPEAT_INVOKES):
        token = f"repeat-{i}"
        reply = sim.run(until=discover_and_invoke(
            stack, stack.user_clients[0], "Repeat%", token=token))
        if reply != token + "\n":
            raise RuntimeError(f"repeat invoke {i} answered {reply!r}")
    staged = [ev.kind for ev in bus(sim).events()
              if ev.kind in ("cache.hit", "cache.miss")
              and ev.fields.get("cache") == "staged"]
    return {
        "uplink": uplink.server.work_integral() - uplink0,
        "uploads": stack.agent.uploads,
        "replications": stack.agent.replications,
        "hits": staged.count("cache.hit"),
        "misses": staged.count("cache.miss"),
    }


def _control_bytes(env: ScenarioEnv) -> float:
    tb = env.testbed
    return float(sum(g.control_bytes for g in tb.gatekeepers.values())
                 + sum(f.control_bytes for f in tb.ftp_servers.values())
                 + env.stack.agent.probe_bytes)


def _head_cpu(env: ScenarioEnv) -> float:
    return sum(g.head_cpu_modeled
               for g in env.testbed.gatekeepers.values())


def _one_mode(n: int, seed: int, batched: bool,
              smoke: bool) -> Dict[str, float]:
    """One concurrency level in one mode, on a single-site testbed."""
    config = OnServeConfig(datapath=batched)
    env = standard_env(config=config, n_users=n, seed=seed,
                       n_sites=1, nodes_per_site=4, cores_per_node=8)
    stack, sim = env.stack, env.sim
    telemetry = bus(sim)

    # Ground truth vs detection: the scheduler stamps actual completion,
    # the runtime stamps when polling noticed it.
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
        env.testbed.user_hosts[0], "datapath.bin", payload,
        params_spec="seconds:double"))

    env.mark()
    ctl0 = _control_bytes(env)
    cpu0 = _head_cpu(env)

    base_runtime = 10.0 if smoke else 25.0
    latencies: List[float] = []

    def timed(i: int) -> Generator[Event, None, None]:
        t0 = sim.now
        yield discover_and_invoke(stack, stack.user_clients[i],
                                  "Datapath%",
                                  seconds=base_runtime + 6.0 * i)
        latencies.append(sim.now - t0)

    procs = [sim.process(timed(i), name=f"timed:{i}") for i in range(n)]
    sim.run(until=sim.all_of(procs))

    lags = [detected[job] - finished[job]
            for job in detected if job in finished]
    if not lags:
        raise RuntimeError("datapath scenario detected no completions")
    return {
        "ctl": _control_bytes(env) - ctl0,
        "cpu": _head_cpu(env) - cpu0,
        "lag_mean": sum(lags) / len(lags),
        "lag_p50": percentile(lags, 50.0),
        "lag_p95": percentile(lags, 95.0),
        "latency": sum(latencies) / len(latencies),
    }
