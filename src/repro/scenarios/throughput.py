"""Invocation hot-path ablation: caches + coalescing vs the faithful path.

The faithful §VII.B workflow repeats per invocation what N concurrent
clients could share: the UDDI inquiry and WSDL fetch (client side), the
MyProxy logon, the DB executable fetch, and the GridFTP staging transfer
(appliance side).  This sweep runs N simultaneous ``discover_and_invoke``
calls against one published service for growing N, twice per level:

* **baseline** — stock :class:`~repro.core.onserve.OnServeConfig`
  (every cache off, no coalescing), the timeline the goldens pin;
* **cached** — ``coalesce=True`` + ``upload_cache=True`` on the
  appliance and a :class:`~repro.ws.cache.ClientCache` on every client.

Each level reports the mean per-invocation simulated latency for both
modes, the reduction, the number of GridFTP staging transfers actually
performed, and the cache hit/miss totals — the numbers behind the
"cached mode cuts mean latency by >= 20% at 8 clients" claim in
EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence

from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig
from repro.scenarios.common import standard_env
from repro.simkernel.events import Event
from repro.telemetry.events import bus
from repro.units import KB
from repro.workloads.executables import make_payload

__all__ = ["ThroughputResult", "run_throughput"]


class ThroughputResult:
    """One sweep: per-concurrency baseline-vs-cached measurements."""

    def __init__(self, rows: List[Dict[str, float]], rounds: int):
        self.rows = rows
        self.rounds = rounds

    def reduction_at(self, n: int) -> float:
        """Fractional mean-latency reduction of cached mode at level *n*."""
        for row in self.rows:
            if int(row["n"]) == n:
                return row["reduction"]
        raise KeyError(f"no concurrency level {n} in this sweep")

    @property
    def ok(self) -> bool:
        """One staging transfer per level; from 8 clients on, cached
        mode cuts mean latency by at least 20%."""
        return all(row["cached_transfers"] == 1.0
                   and (row["n"] < 8 or row["reduction"] >= 0.20)
                   for row in self.rows)

    def render(self) -> str:
        title = (f"Invocation throughput ablation — caches off vs on, "
                 f"{self.rounds} rounds per level")
        lines = [title, "=" * len(title),
                 f"{'N':>3} {'base mean(s)':>13} {'cached mean(s)':>15} "
                 f"{'reduction':>9} {'transfers':>9} {'hits':>6} "
                 f"{'misses':>7}"]
        for row in self.rows:
            lines.append(
                f"{row['n']:>3.0f} {row['base_mean']:>13.1f} "
                f"{row['cached_mean']:>15.1f} "
                f"{100 * row['reduction']:>8.1f}% "
                f"{row['base_transfers']:>4.0f}->{row['cached_transfers']:<4.0f}"
                f"{row['cache_hits']:>6.0f} {row['cache_misses']:>7.0f}")
        return "\n".join(lines)


def run_throughput(levels: Sequence[int] = (1, 2, 4, 8),
                   file_bytes: Optional[int] = None,
                   rounds: int = 2,
                   seed: int = 0,
                   smoke: bool = False) -> ThroughputResult:
    """Sweep concurrency, measuring baseline vs cached mean latency.

    *rounds* back-to-back waves of N concurrent invocations run per
    mode: the first wave exercises coalescing (cold caches shared
    in-flight), later waves exercise the warm caches.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if smoke:
        levels = tuple(levels)[:2] or (1,)
        file_bytes = file_bytes or int(KB(64))
    file_bytes = file_bytes or int(KB(512))
    rows = []
    for n in levels:
        base = _one_mode(n, file_bytes, rounds, seed, cached=False)
        warm = _one_mode(n, file_bytes, rounds, seed, cached=True)
        rows.append({
            "n": float(n),
            "base_mean": base["mean"],
            "cached_mean": warm["mean"],
            "reduction": (base["mean"] - warm["mean"]) / base["mean"],
            "base_transfers": base["transfers"],
            "cached_transfers": warm["transfers"],
            "cache_hits": warm["hits"],
            "cache_misses": warm["misses"],
        })
    return ThroughputResult(rows, rounds)


def _one_mode(n: int, file_bytes: int, rounds: int, seed: int,
              cached: bool) -> Dict[str, float]:
    """One concurrency level in one mode; means over all invocations."""
    config = OnServeConfig(coalesce=cached, upload_cache=cached)
    env = standard_env(config=config, n_users=n, seed=seed)
    stack, sim = env.stack, env.sim
    telemetry = bus(sim)
    if cached:
        stack.enable_client_caches()

    payload = make_payload("fixed", size=file_bytes, runtime="30",
                           output_bytes=str(int(KB(4))))
    sim.run(until=stack.portal.upload_and_generate(
        env.testbed.user_hosts[0], "throughput.bin", payload))

    env.mark()
    transfers0 = telemetry.counts().get("agent.upload", 0)
    hits0 = telemetry.counts().get("cache.hit", 0)
    misses0 = telemetry.counts().get("cache.miss", 0)

    latencies: List[float] = []

    def timed(i: int) -> Generator[Event, None, None]:
        t0 = sim.now
        yield discover_and_invoke(stack, stack.user_clients[i],
                                  "Throughput%")
        latencies.append(sim.now - t0)

    for _ in range(rounds):
        procs = [sim.process(timed(i), name=f"timed:{i}")
                 for i in range(n)]
        sim.run(until=sim.all_of(procs))

    counts = telemetry.counts()
    return {
        "mean": sum(latencies) / len(latencies),
        "transfers": float(counts.get("agent.upload", 0) - transfers0),
        "hits": float(counts.get("cache.hit", 0) - hits0),
        "misses": float(counts.get("cache.miss", 0) - misses0),
    }
