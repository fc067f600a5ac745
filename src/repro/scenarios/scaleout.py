"""Replica scale-out sweep: sharded appliances behind the request router.

The single virtual appliance's thin WAN uplink (85 KB/s in the paper's
testbed) serializes the per-invocation GridFTP staging transfer — the
§VIII bottleneck.  :func:`~repro.core.fabric.deploy_fabric` shards the
appliance into N stateless replicas, each with its own uplink, behind a
consistent-hash :class:`~repro.ws.router.RequestRouter`; this sweep
measures what that buys.

For each replica count the sweep deploys a fabric, publishes S services
through the portal, then lets C closed-loop clients each run K
``discover_and_invoke`` rounds (every call — inquiry, WSDL fetch,
execute — travels through the router).  Per level it reports end-to-end
throughput, mean and p95 invocation latency, how often the router
deviated from the hash owner (spill/breaker rebalances) and how many
on-demand service materializations the replicas performed.

``ScaleoutResult.ok`` holds three claims (EXPERIMENTS.md SCALEOUT):

* cheap indirection — the router's extra hop costs **< 5%** end-to-end
  at ``replicas=1``, measured by re-running the 1-replica level with
  the router disabled (the byte-identical ``deploy_onserve`` path) and
  comparing elapsed times;
* full width — every cold stage rides one range per replica; and
* near-linear scaling — at least 1.7x / 3.2x / 6x the 1-replica
  throughput at 2 / 4 / 8 replicas, still growing at 16.  Only the
  full-size sweep shows this: the smoke's six clients cannot fill two
  replicas.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence

from repro.core.context import RequestContext
from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig
from repro.scenarios.common import percentile, standard_env
from repro.simkernel.events import Event
from repro.telemetry.events import bus
from repro.units import KB, MB
from repro.workloads.executables import make_payload

__all__ = ["ScaleoutResult", "run_scaleout"]


class ScaleoutResult:
    """One sweep: per-replica-count fabric measurements + overhead pair."""

    def __init__(self, rows: List[Dict[str, float]],
                 baseline_elapsed: float, routed_elapsed: float,
                 clients: int, rounds: int, services: int,
                 cold_rows: Sequence[Dict[str, float]] = (),
                 smoke: bool = False):
        self.rows = rows
        #: One cold stage per (payload size, replica count): what one
        #: request gains from the uplinks of replicas not serving it.
        self.cold_rows = list(cold_rows)
        #: replicas=1, router *off* — the stock deploy_onserve timeline.
        self.baseline_elapsed = baseline_elapsed
        #: replicas=1, router *on* — same workload through the router.
        self.routed_elapsed = routed_elapsed
        self.clients = clients
        self.rounds = rounds
        self.services = services
        self.smoke = smoke

    def row_at(self, replicas: int) -> Dict[str, float]:
        for row in self.rows:
            if int(row["replicas"]) == replicas:
                return row
        raise KeyError(f"no replica level {replicas} in this sweep")

    def speedup_at(self, replicas: int) -> float:
        """Throughput multiple over the 1-replica fabric."""
        return (self.row_at(replicas)["throughput"]
                / self.row_at(1)["throughput"])

    def router_overhead(self) -> float:
        """Fractional end-to-end cost of the router hop at replicas=1."""
        return ((self.routed_elapsed - self.baseline_elapsed)
                / self.baseline_elapsed)

    @property
    def scales(self) -> bool:
        """Near-linear to 8 replicas, still growing at 16 (the full
        sweep's levels)."""
        return (self.speedup_at(2) >= 1.7 and self.speedup_at(4) >= 3.2
                and self.speedup_at(8) >= 6.0
                and self.speedup_at(16) > self.speedup_at(8))

    @property
    def ok(self) -> bool:
        return (self.router_overhead() < 0.05
                and all(row["stripes"] == row["replicas"]
                        for row in self.cold_rows)
                and (self.smoke or self.scales))

    def render(self) -> str:
        title = (f"Replica scale-out — {self.clients} clients x "
                 f"{self.rounds} rounds over {self.services} services")
        lines = [title, "=" * len(title),
                 f"{'N':>3} {'elapsed(s)':>11} {'inv/s':>7} "
                 f"{'mean(s)':>8} {'p95(s)':>8} {'speedup':>8} "
                 f"{'rebal':>6} {'mater':>6}"]
        for row in self.rows:
            lines.append(
                f"{row['replicas']:>3.0f} {row['elapsed']:>11.1f} "
                f"{row['throughput']:>7.3f} {row['mean']:>8.1f} "
                f"{row['p95']:>8.1f} "
                f"{self.speedup_at(int(row['replicas'])):>7.2f}x "
                f"{row['rebalances']:>6.0f} {row['materialized']:>6.0f}")
        lines.append(
            f"router overhead @1 replica: {100 * self.router_overhead():.2f}%"
            f" (direct {self.baseline_elapsed:.1f}s -> routed "
            f"{self.routed_elapsed:.1f}s)")
        if self.cold_rows:
            lines += ["", "cold stage vs replicas (stage by content; "
                      "peers' sessions warm)",
                      f"{'size(KB)':>8} {'N':>3} {'stage(s)':>9} "
                      f"{'stripes':>8} {'uplink(KB)':>11}"]
            lines += [f"{row['size'] / KB(1):>8.0f} {row['replicas']:>3.0f} "
                      f"{row['stage']:>9.2f} {row['stripes']:>8.0f} "
                      f"{row['uplink'] / KB(1):>11.1f}"
                      for row in self.cold_rows]
        return "\n".join(lines)


def run_scaleout(replica_levels: Sequence[int] = (1, 2, 4, 8, 16),
                 clients: Optional[int] = None,
                 services: Optional[int] = None,
                 rounds: Optional[int] = None,
                 file_bytes: Optional[int] = None,
                 runtime: str = "6",
                 seed: int = 0,
                 smoke: bool = False) -> ScaleoutResult:
    """Sweep replica counts under a fixed closed-loop client population.

    Staging dominates each invocation (upload caches are off, faithful
    to the paper's workflow), so throughput is gated by how many WAN
    uplinks the fabric owns — which is exactly the replica count.
    """
    if smoke:
        replica_levels = tuple(replica_levels)[:2] or (1,)
        clients = 6 if clients is None else clients
        services = 3 if services is None else services
        rounds = 1 if rounds is None else rounds
        file_bytes = int(KB(64)) if file_bytes is None else file_bytes
        runtime = "4"
    clients = 160 if clients is None else clients
    services = 12 if services is None else services
    rounds = 3 if rounds is None else rounds
    file_bytes = int(KB(256)) if file_bytes is None else file_bytes
    if clients < 1 or services < 1 or rounds < 1:
        raise ValueError("clients, services and rounds must be >= 1")

    rows = []
    routed_elapsed = None
    for n in replica_levels:
        level = _one_level(n, True, clients, services, rounds, file_bytes,
                           runtime, seed)
        rows.append(level)
        if n == 1:
            routed_elapsed = level["elapsed"]
    if routed_elapsed is None:
        routed = _one_level(1, True, clients, services, rounds, file_bytes,
                            runtime, seed)
        routed_elapsed = routed["elapsed"]
    baseline = _one_level(1, False, clients, services, rounds, file_bytes,
                          runtime, seed)
    # The smoke keeps N = 4: two ranges cannot tell a coarse range floor
    # from one that fills every uplink.
    widths = ((1, 2, 4) if smoke
              else [n for n in (1, 2, 4, 8) if n <= max(replica_levels)])
    cold = [_cold_stage(n, size, seed)
            for size in ((int(KB(256)),) if smoke
                         else (int(KB(256)), int(MB(1))))
            for n in widths]
    return ScaleoutResult(rows, baseline["elapsed"], routed_elapsed,
                          clients, rounds, services, cold, smoke)


def _one_level(replicas: int, router_on: bool, clients: int, services: int,
               rounds: int, file_bytes: int, runtime: str,
               seed: int) -> Dict[str, float]:
    """Deploy one fabric and push the full client population through it."""
    env = standard_env(sample_interval=None, seed=seed, n_users=clients,
                       fabric=dict(replicas=replicas, router=router_on))
    sim, testbed, stack = env.sim, env.testbed, env.stack
    telemetry = bus(sim)

    payload = make_payload("fixed", size=file_bytes, runtime=runtime,
                           output_bytes=str(int(KB(4))))
    for j in range(services):
        sim.run(until=stack.portal.upload_and_generate(
            testbed.user_hosts[0], f"scale{j:02d}.bin", payload))

    t0 = sim.now
    counts0 = telemetry.counts()
    latencies: List[float] = []

    def worker(i: int) -> Generator[Event, None, None]:
        client = stack.user_clients[i]
        pattern = f"Scale{i % services:02d}%"
        for _ in range(rounds):
            t_req = sim.now
            yield discover_and_invoke(stack, client, pattern)
            latencies.append(sim.now - t_req)

    procs = [sim.process(worker(i), name=f"client:{i}")
             for i in range(clients)]
    sim.run(until=sim.all_of(procs))

    elapsed = sim.now - t0
    counts = telemetry.counts()
    router = stack.router
    return {
        "replicas": float(replicas),
        "elapsed": elapsed,
        "throughput": len(latencies) / elapsed,
        "mean": sum(latencies) / len(latencies),
        "p95": percentile(latencies, 95.0),
        "rebalances": float(router.rebalances if router else 0),
        "routed": float(router.requests_routed if router else 0),
        "materialized": float(
            counts.get("core.service_materialized", 0)
            - counts0.get("core.service_materialized", 0)),
    }


def _cold_stage(replicas: int, size: int, seed: int) -> Dict[str, float]:
    """One cold stage of *size* bytes on a *replicas*-wide fabric.

    Staging by content (``datapath``), so bytes nobody holds are striped
    over the peers' uplinks.  A first 1 MB executable is staged and run
    to open every replica's agent session and GridFTP channel (a serving
    fabric's state); the second is measured: its ``service:upload``
    seconds, the PUTs under it, its invocation's bytes on all uplinks.
    """
    env = standard_env(sample_interval=None, seed=seed, n_users=1,
                       config=OnServeConfig(coalesce=True, datapath=True),
                       fabric=dict(replicas=replicas, router=True))
    sim, testbed, stack = env.sim, env.testbed, env.stack
    uplinks = [testbed.network.route(o.host.name, "wan-core")[0].server
               for o in stack.onserves]
    for name, nbytes in (("warm", int(MB(1))), ("cold", size)):
        sim.run(until=stack.portal.upload_and_generate(
            testbed.user_hosts[0], f"{name}.bin",
            make_payload("fixed", size=nbytes, runtime="1")))
        before = sum(server.work_integral() for server in uplinks)
        ctx = RequestContext.create(sim)
        sim.run(until=discover_and_invoke(
            stack, stack.user_clients[0], f"{name.capitalize()}%", ctx=ctx))
    upload = ctx.root.find("service:upload")
    return {
        "replicas": float(replicas), "size": float(size),
        "stage": upload.duration,
        "stripes": float(sum(node.name == "gridftp:put"
                             for _, node in upload.walk())),
        "uplink": sum(server.work_integral() for server in uplinks) - before,
    }
