"""§VIII.D scalability study: concurrent requests and bottlenecks.

Paper: "It is quite obvious that the solution's scalability is limited
either by the system's hard disk I/O-performance or its network
connection's performance.  The solution doesn't need a lot of CPU time
nor a lot of memory, even with multiple simultaneous requests."

The sweep runs N simultaneous requests (portal uploads or service
invocations) for growing N, on a slow-network or fast-network testbed,
and reports for each level the makespan, throughput and the utilization
of each appliance resource relative to its capacity — identifying the
bottleneck.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig
from repro.scenarios.common import standard_env
from repro.units import KB, KBps, MB, Mbps
from repro.workloads.executables import make_payload

__all__ = ["ScalabilityResult", "run_scalability"]

#: Named network configurations for the study.
NETWORKS = {
    "slow": dict(appliance_uplink=KBps(85), lan_bandwidth=Mbps(10)),
    "fast": dict(appliance_uplink=Mbps(100), lan_bandwidth=Mbps(1000)),
}

#: §VIII.D.2-3: what limits each sweep the paper discusses — disk for
#: uploads over a good network, the network for invocations over a
#: slow one.  Any other sweep is limited by one of the two.
LIMITS = {("upload", "fast"): ("disk",), ("invoke", "slow"): ("network",)}


class ScalabilityResult:
    """One sweep: rows of per-concurrency measurements."""

    def __init__(self, workload: str, network: str,
                 rows: List[Dict[str, float]]):
        self.workload = workload
        self.network = network
        self.rows = rows

    def bottleneck(self, row: Dict[str, float]) -> str:
        loads = {"network": row["net_load"], "disk": row["disk_load"],
                 "cpu": row["cpu_load"], "memory": row["mem_load"]}
        return max(loads, key=loads.get)

    @property
    def ok(self) -> bool:
        """CPU never saturates; the most loaded level hits its limit."""
        limits = LIMITS.get((self.workload, self.network),
                            ("disk", "network"))
        return (all(row["cpu_load"] < 0.85 for row in self.rows)
                and self.bottleneck(self.rows[-1]) in limits)

    def render(self) -> str:
        title = (f"Scalability (§VIII.D) — workload={self.workload}, "
                 f"network={self.network}")
        lines = [title, "=" * len(title),
                 f"{'N':>3} {'makespan(s)':>12} {'req/min':>8} "
                 f"{'cpu':>6} {'disk':>6} {'net':>6} {'mem':>6}  bottleneck"]
        for row in self.rows:
            lines.append(
                f"{row['n']:>3.0f} {row['makespan']:>12.1f} "
                f"{row['throughput']:>8.2f} "
                f"{100 * row['cpu_load']:>5.0f}% "
                f"{100 * row['disk_load']:>5.0f}% "
                f"{100 * row['net_load']:>5.0f}% "
                f"{100 * row['mem_load']:>5.0f}%  {self.bottleneck(row)}")
        return "\n".join(lines)


def run_scalability(workload: str = "upload",
                    network: str = "fast",
                    levels=(1, 2, 4, 8),
                    file_bytes: Optional[int] = None,
                    seed: int = 0) -> ScalabilityResult:
    """Sweep concurrency for one workload on one network config."""
    if workload not in ("upload", "invoke"):
        raise ValueError(f"unknown workload {workload!r}")
    if network not in NETWORKS:
        raise ValueError(f"unknown network {network!r}")
    file_bytes = file_bytes or int(2 * MB(1))
    rows = []
    for n in levels:
        rows.append(_one_level(workload, network, n, file_bytes, seed))
    return ScalabilityResult(workload, network, rows)


def _one_level(workload: str, network: str, n: int, file_bytes: int,
               seed: int) -> Dict[str, float]:
    config = OnServeConfig(poll_interval=9.0)
    env = standard_env(config=config, n_users=n, seed=seed,
                       **NETWORKS[network])
    tb, stack, sim = env.testbed, env.stack, env.sim
    host = tb.appliance_host

    if workload == "invoke":
        # Pre-publish one service per user so invocations are concurrent.
        for i in range(n):
            payload = make_payload("fixed", size=file_bytes, runtime="45",
                                   output_bytes=str(int(KB(4))))
            sim.run(until=stack.portal.upload_and_generate(
                tb.user_hosts[i], f"inv-{i:02d}.bin", payload))

    env.mark()
    busy0 = host.cpu.busy_core_seconds()
    disk0 = host.disk.bytes_read() + host.disk.bytes_written()
    net0 = host.net_bytes_in() + host.net_bytes_out()
    host.memory_peak = host.memory_used  # reset the high-water mark
    t0 = sim.now

    procs = []
    for i in range(n):
        if workload == "upload":
            payload = make_payload("fixed", size=file_bytes, runtime="45")
            procs.append(stack.portal.upload_and_generate(
                tb.user_hosts[i], f"up-{i:02d}.bin", payload))
        else:
            procs.append(discover_and_invoke(
                stack, stack.user_clients[i], f"Inv{i:02d}%"))
    sim.run(until=sim.all_of(procs))
    makespan = sim.now - t0

    # Mean loads over the busy window, relative to each capacity.
    cpu_load = ((host.cpu.busy_core_seconds() - busy0)
                / (host.cpu.cores * makespan))
    disk_bytes = (host.disk.bytes_read() + host.disk.bytes_written()) - disk0
    disk_load = disk_bytes / (host.disk.bandwidth * makespan)
    net_bytes = (host.net_bytes_in() + host.net_bytes_out()) - net0
    uplink = NETWORKS[network]["appliance_uplink"]
    lan = NETWORKS[network]["lan_bandwidth"]
    # The relevant pipe differs per workload: uploads arrive via LAN,
    # invocations push executables out via the uplink.
    pipe = lan if workload == "upload" else uplink
    net_load = net_bytes / (pipe * makespan)

    return {
        "n": float(n),
        "makespan": makespan,
        "throughput": 60.0 * n / makespan,
        "cpu_load": cpu_load,
        "disk_load": disk_load,
        "net_load": net_load,
        "mem_load": host.memory_peak / host.memory_bytes,
    }
