"""Figure 6: Web service execution with a very small file.

Paper (§VIII.B): "To generate the graph, a very small file (some bytes)
has been used and loaded to a Grid node.  It is notable that the hard
disk utilization is very low as well as the amount of data sent to the
Grid.  A relatively large part of the measured traffic is generated by
the security credential request and the associated answer.  The CPU
usage achieves a high value while loading and decompressing the file
from the database and a second time when the job is being created and
submitted to the Grid."  Plus the periodic output-request disk writes.
"""

from __future__ import annotations

from typing import List

from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig
from repro.scenarios.common import ScenarioEnv, standard_env
from repro.telemetry.report import render_figure
from repro.telemetry.series import TimeSeries
from repro.units import KB, KBps
from repro.workloads.executables import make_payload

__all__ = ["Fig6Result", "run_fig6"]


class Fig6Result:
    """Series + headline facts of the Figure 6 scenario."""

    def __init__(self, env: ScenarioEnv, series: List[TimeSeries],
                 executable_bytes: int, net_out_total: float,
                 security_bytes_estimate: float, polls: int,
                 invocation_total: float):
        self.env = env
        self.series = series
        self.executable_bytes = executable_bytes
        #: Total bytes the appliance sent toward the grid.
        self.net_out_total = net_out_total
        #: Bytes attributable to credential exchange + GSI handshakes.
        self.security_bytes_estimate = security_bytes_estimate
        self.polls = polls
        self.invocation_total = invocation_total

    @property
    def security_fraction(self) -> float:
        if self.net_out_total <= 0:
            return 0.0
        return min(1.0, self.security_bytes_estimate / self.net_out_total)

    @property
    def ok(self) -> bool:
        """Security traffic is a large share; the job was polled."""
        return self.security_fraction > 0.25 and self.polls >= 5

    def render(self) -> str:
        lines = [render_figure(
            "Figure 6 — WS execution, small file "
            "(CPU / network / disk @ 3 s)", self.series)]
        lines.append(f"executable size          : {self.executable_bytes} B")
        lines.append(f"appliance bytes to grid  : {self.net_out_total:.0f} B")
        lines.append(f"security-traffic share   : "
                     f"{100 * self.security_fraction:.0f}%")
        lines.append(f"tentative output polls   : {self.polls}")
        lines.append(f"invocation wall time     : "
                     f"{self.invocation_total:.1f} s")
        return "\n".join(lines)


def run_fig6(runtime_seconds: float = 75.0,
             poll_interval: float = 9.0,
             appliance_uplink: float = KBps(85),
             seed: int = 0) -> Fig6Result:
    """Run the Figure 6 scenario and return its result."""
    config = OnServeConfig(poll_interval=poll_interval)
    env = standard_env(appliance_uplink=appliance_uplink, config=config,
                       seed=seed)
    tb, stack, sim = env.testbed, env.stack, env.sim

    # A "very small file (some bytes)": header-only payload.
    payload = make_payload("fixed", runtime=f"{runtime_seconds}",
                           output_bytes=str(int(KB(4))))
    sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "tiny.sh", payload,
        description="figure 6 small executable", params_spec=""))

    # Measure only the WS-execution window.
    env.mark()
    out_before = tb.appliance_host.net_bytes_out()
    t0 = sim.now
    sim.run(until=discover_and_invoke(stack, stack.user_clients[0], "Tiny%"))
    invocation_total = sim.now - t0
    # Let the sampler close the final interval.
    sim.run(until=sim.now + env.sampler.interval)

    runtime = stack.onserve.runtimes["TinyService"]
    report = runtime.last_report

    # Credential-traffic estimate: the MyProxy exchange plus one GSI
    # handshake per grid operation (upload, submit, N output polls).
    from repro.security.gsi import GsiAcceptor
    from repro.security.myproxy import MyProxyServer
    session = next(iter(stack.agent._sessions.values()))
    handshake = GsiAcceptor.handshake_bytes(session.chain)
    security = (MyProxyServer.LOGON_REQUEST_BYTES
                + sum(c.wire_size() for c in session.chain)
                + 2 * handshake)  # gridftp put + gram submit

    return Fig6Result(
        env=env,
        series=env.figure_series(),
        executable_bytes=len(payload),
        net_out_total=tb.appliance_host.net_bytes_out() - out_before,
        security_bytes_estimate=security,
        polls=report.polls,
        invocation_total=invocation_total,
    )
