"""Figure 7: Web service execution with a ~5 MB file.

Paper (§VIII.B): "By replacing the small file used in the test before
with a much larger file (~5MB), the bandwidth limitation becomes
visible. ... The first blue peak indicates the moment the file is
written temporarily to the hard disk.  Clearly, the hard disk is not the
limiting factor in this test, but the network bandwidth is.  It takes
about 60 seconds to upload the file to the Grid node.  The transfer rate
is almost constant all the time at about 80 to 90 KB/s."
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig
from repro.scenarios.common import ScenarioEnv, standard_env
from repro.telemetry.report import render_figure
from repro.telemetry.series import TimeSeries
from repro.units import KB, KBps, MB
from repro.workloads.executables import make_payload

__all__ = ["Fig7Result", "run_fig7"]


class Fig7Result:
    """Series + headline facts of the Figure 7 scenario."""

    def __init__(self, env: ScenarioEnv, series: List[TimeSeries],
                 file_bytes: int, upload_seconds: float,
                 plateau: List[Tuple[float, float]],
                 plateau_rate_kbps: float, polls: int,
                 invocation_total: float):
        self.env = env
        self.series = series
        self.file_bytes = file_bytes
        self.upload_seconds = upload_seconds
        #: Intervals where net-out sits in the plateau band.
        self.plateau = plateau
        self.plateau_rate_kbps = plateau_rate_kbps
        self.polls = polls
        self.invocation_total = invocation_total

    def render(self) -> str:
        lines = [render_figure(
            "Figure 7 — WS execution, ~5 MB file "
            "(network + disk I/O @ 3 s)", self.series)]
        lines.append(f"file size              : {self.file_bytes / MB(1):.1f} MB")
        lines.append(f"grid upload time       : {self.upload_seconds:.1f} s "
                     f"(paper: ~60 s)")
        lines.append(f"plateau transfer rate  : "
                     f"{self.plateau_rate_kbps:.0f} KB/s (paper: 80-90)")
        lines.append(f"tentative output polls : {self.polls}")
        return "\n".join(lines)


def run_fig7(file_bytes: Optional[int] = None,
             runtime_seconds: float = 90.0,
             poll_interval: float = 9.0,
             appliance_uplink: float = KBps(85),
             seed: int = 0) -> Fig7Result:
    """Run the Figure 7 scenario and return its result."""
    file_bytes = file_bytes or int(5 * MB(1))
    config = OnServeConfig(poll_interval=poll_interval)
    env = standard_env(appliance_uplink=appliance_uplink, config=config,
                       seed=seed)
    tb, stack, sim = env.testbed, env.stack, env.sim

    payload = make_payload("fixed", size=file_bytes,
                           runtime=f"{runtime_seconds}",
                           output_bytes=str(int(KB(8))))
    sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "bigfile.bin", payload,
        description="figure 7 large executable", params_spec=""))

    env.mark()
    t0 = sim.now
    sim.run(until=discover_and_invoke(stack, stack.user_clients[0], "Bigfile%"))
    invocation_total = sim.now - t0
    sim.run(until=sim.now + env.sampler.interval)

    report = stack.onserve.runtimes["BigfileService"].last_report

    # Plateau detection on the appliance's outbound rate.
    uplink_kbps = appliance_uplink / KB(1)
    net_out = env.sampler["net_out_kbps"].slice(env.t_start, sim.now)
    plateau = net_out.plateau(0.8 * uplink_kbps, 1.2 * uplink_kbps,
                              min_duration=3 * 3.0)
    in_band = [v for v in net_out.values
               if 0.8 * uplink_kbps <= v <= 1.2 * uplink_kbps]
    plateau_rate = sum(in_band) / len(in_band) if in_band else 0.0

    return Fig7Result(
        env=env,
        series=env.figure_series(metrics=("net_in_kbps", "net_out_kbps",
                                          "disk_read_kbps",
                                          "disk_write_kbps")),
        file_bytes=file_bytes,
        upload_seconds=report.upload,
        plateau=plateau,
        plateau_rate_kbps=plateau_rate,
        polls=report.polls,
        invocation_total=invocation_total,
    )
