"""§VIII.B overhead study: onServe vs the raw JSE path.

Paper: "The additional overhead added by Cyberaide onServe should be
quite small compared to the runtime of a typical executable a Grid-Web
service is generated for."

For each executable runtime R the harness measures:

* the full onServe invocation (UDDI discovery, WSDL, stub, SOAP,
  database retrieval, agent, GridFTP, GRAM, tentative polling), and
* the *direct JSE* baseline a grid-savvy user would run by hand:
  MyProxy logon, GridFTP put, GRAM submit, wait, fetch output —
  no appliance anywhere.

Both include the R seconds the job itself runs; the comparison is the
added middleware time, absolute and relative.
"""

from __future__ import annotations

from typing import Dict, Generator, List

from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig
from repro.cyberaide.jobspec import CyberaideJobSpec
from repro.grid.testbed import build_testbed
from repro.scenarios.common import standard_env
from repro.simkernel.kernel import Simulator
from repro.units import KB, Mbps
from repro.workloads.executables import make_payload

__all__ = ["OverheadResult", "run_overhead"]


class OverheadResult:
    """Rows of (runtime, onserve_total, direct_total, overheads)."""

    def __init__(self, rows: List[Dict[str, float]]):
        self.rows = rows

    @property
    def ok(self) -> bool:
        """Relative overhead falls with runtime, under 2% from 30 min."""
        rels = [row["relative"] for row in self.rows]
        return (rels == sorted(rels, reverse=True)
                and all(row["relative"] < 0.02 for row in self.rows
                        if row["runtime"] >= 1800.0))

    def render(self) -> str:
        title = "Overhead study (§VIII.B) — onServe vs direct JSE"
        lines = [title, "=" * len(title),
                 f"{'runtime(s)':>10} {'onServe(s)':>11} {'direct(s)':>10} "
                 f"{'added(s)':>9} {'relative':>9}"]
        for row in self.rows:
            lines.append(
                f"{row['runtime']:>10.0f} {row['onserve_total']:>11.1f} "
                f"{row['direct_total']:>10.1f} {row['added']:>9.1f} "
                f"{100 * row['relative']:>8.1f}%")
        return "\n".join(lines)


def run_overhead(runtimes=(10.0, 60.0, 300.0, 1800.0),
                 file_bytes: int = int(KB(64)),
                 uplink: float = Mbps(8),
                 poll_interval: float = 9.0,
                 seed: int = 0) -> OverheadResult:
    """Measure both paths for each runtime."""
    rows = []
    for runtime in runtimes:
        onserve_total = _onserve_path(runtime, file_bytes, uplink,
                                      poll_interval, seed)
        direct_total = _direct_path(runtime, file_bytes, uplink, seed)
        added = onserve_total - direct_total
        rows.append({
            "runtime": runtime,
            "onserve_total": onserve_total,
            "direct_total": direct_total,
            "added": added,
            "relative": added / runtime,
        })
    return OverheadResult(rows)


def _onserve_path(runtime: float, file_bytes: int, uplink: float,
                  poll_interval: float, seed: int) -> float:
    env = standard_env(appliance_uplink=uplink,
                       config=OnServeConfig(poll_interval=poll_interval),
                       seed=seed)
    tb, stack, sim = env.testbed, env.stack, env.sim
    payload = make_payload("fixed", size=file_bytes, runtime=f"{runtime}",
                           output_bytes=str(int(KB(4))))
    sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "job.bin", payload))
    t0 = sim.now
    sim.run(until=discover_and_invoke(stack, stack.user_clients[0], "Job%"))
    return sim.now - t0


def _direct_path(runtime: float, file_bytes: int, uplink: float,
                 seed: int) -> float:
    """The hand-rolled JSE workflow, measured from the user's machine.

    The user machine talks to the grid through the same thin uplink the
    appliance would use (both sit behind the same WAN connection)."""
    sim = Simulator(seed=seed)
    tb = build_testbed(sim=sim, n_sites=4, nodes_per_site=4,
                       cores_per_node=8, appliance_uplink=uplink)
    tb.new_grid_identity("poweruser", "pw")
    payload = make_payload("fixed", size=file_bytes, runtime=f"{runtime}",
                           output_bytes=str(int(KB(4))))
    # The power user works from the machine behind the WAN uplink.
    client = tb.appliance_host
    spec = CyberaideJobSpec("job.bin")
    site = tb.mds.best_site().name

    def flow() -> Generator:
        _key, proxy, ee = yield tb.myproxy.logon(client, "poweruser", "pw",
                                                 lifetime=3600.0)
        chain = [proxy, ee]
        yield tb.ftp(site).put(client, chain, spec.staged_path(), payload)
        job_id = yield tb.gram(site).submit(client, chain,
                                            spec.to_rsl("direct"))
        yield tb.gram(site).completion_event(job_id)
        yield tb.ftp(site).get(client, chain, spec.stdout_path("direct"))

    t0 = sim.now
    sim.run(until=sim.process(flow()))
    return sim.now - t0
