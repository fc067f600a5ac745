"""§VIII.B many-small-files claim.

Paper: "Finally, the provided solution is quite good in a scenario using
a lot of relatively small files.  The network limitation doesn't play a
huge role in this case and K-GRAM permits to submit a large number of
jobs quite efficiently."

The harness uploads N small executables, invokes each one, and reports
the sustained submission/completion rate as N grows — per-job cost
should stay flat (amortization), in contrast to the large-file scenario
where the network dominates.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig
from repro.cyberaide.mediator import Mediator
from repro.scenarios.common import standard_env
from repro.units import KB, KBps, MB
from repro.workloads.executables import make_payload
from repro.workloads.generator import WorkloadSpec, make_workload

__all__ = ["SmallFilesResult", "run_smallfiles"]


class SmallFilesResult:
    """Rows of per-N measurements plus the large-file contrast row."""

    def __init__(self, rows: List[Dict[str, float]],
                 large_file_row: Dict[str, float]):
        self.rows = rows
        self.large_file_row = large_file_row

    @property
    def ok(self) -> bool:
        """Per-job time stays flat, far below the large file's."""
        per_job = [row["per_job"] for row in self.rows]
        return (per_job[-1] <= per_job[0] * 1.15
                and self.large_file_row["makespan"] > 3 * per_job[-1])

    def render(self) -> str:
        title = "Many small files (§VIII.B)"
        lines = [title, "=" * len(title),
                 f"{'jobs':>5} {'makespan(s)':>12} {'jobs/min':>9} "
                 f"{'s/job':>7}"]
        for row in self.rows:
            lines.append(f"{row['n']:>5.0f} {row['makespan']:>12.1f} "
                         f"{row['rate']:>9.2f} {row['per_job']:>7.2f}")
        big = self.large_file_row
        lines.append(f"large-file contrast (1 x 5 MB): "
                     f"{big['makespan']:.1f} s/job "
                     f"vs {self.rows[-1]['per_job']:.1f} s/job small")
        return "\n".join(lines)


def run_smallfiles(levels=(4, 8, 16),
                   runtime: float = 20.0,
                   concurrency: int = 4,
                   seed: int = 0) -> SmallFilesResult:
    """Sweep the number of small jobs; add one large-file contrast run."""
    rows = [_run_level(n, runtime, concurrency, seed) for n in levels]
    large = _run_large(runtime, seed)
    return SmallFilesResult(rows, large)


def _run_level(n: int, runtime: float, concurrency: int,
               seed: int) -> Dict[str, float]:
    env = standard_env(appliance_uplink=KBps(300), seed=seed,
                       config=OnServeConfig(poll_interval=9.0))
    tb, stack, sim = env.testbed, env.stack, env.sim
    uploads = make_workload(WorkloadSpec(kind="small", count=n,
                                         runtime=runtime, seed=seed))
    for name, payload, description, params in uploads:
        sim.run(until=stack.portal.upload_and_generate(
            tb.user_hosts[0], name, payload, description=description))

    env.mark()
    t0 = sim.now
    mediator = Mediator(sim, max_concurrent=concurrency)
    client = stack.user_clients[0]
    for name, _, _, _ in uploads:
        pattern = _pattern_for(name)

        def factory(pattern=pattern):
            def run():
                result = yield discover_and_invoke(stack, client, pattern)
                return result
            return run()

        mediator.submit(factory, label=pattern)
    sim.run(until=mediator.wait_all())
    stats = mediator.stats()
    assert stats["failed"] == 0, f"jobs failed: {stats}"
    makespan = sim.now - t0
    return {"n": float(n), "makespan": makespan,
            "rate": 60.0 * n / makespan, "per_job": makespan / n}


def _run_large(runtime: float, seed: int) -> Dict[str, float]:
    env = standard_env(appliance_uplink=KBps(300), seed=seed,
                       config=OnServeConfig(poll_interval=9.0))
    tb, stack, sim = env.testbed, env.stack, env.sim
    payload = make_payload("fixed", size=int(5 * MB(1)),
                           runtime=f"{runtime}")
    sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "big.bin", payload))
    t0 = sim.now
    sim.run(until=discover_and_invoke(stack, stack.user_clients[0], "Big%"))
    return {"makespan": sim.now - t0}


def _pattern_for(executable_name: str) -> str:
    from repro.core.datastructures import service_name_for
    return service_name_for(executable_name)
