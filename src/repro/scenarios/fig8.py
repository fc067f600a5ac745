"""Figure 8: upload a file through the portal and generate its service.

Paper (§VIII.C): "Figure 8 shows a high peak of the network input graph,
indicating the reception of the file.  The used network operates at
1000Mbit/s, explaining the peak's height.  The CPU utilization is very
high due to the reception and storage of the file and also because of
tomcat handling the request and loading the java-classes.  Also, the Web
service is being created. ... Two peaks indicating write hard disk
activity show, that the file is written two times.  The problem is, that
the file is first stored temporarily and then in the database."
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.onserve import OnServeConfig
from repro.scenarios.common import ScenarioEnv, standard_env
from repro.telemetry.report import render_figure
from repro.telemetry.series import TimeSeries
from repro.units import Gbps, KB, MB

__all__ = ["Fig8Result", "run_fig8"]


class Fig8Result:
    """Series + headline facts of the Figure 8 scenario."""

    def __init__(self, env: ScenarioEnv, series: List[TimeSeries],
                 file_bytes: int, upload_seconds: float,
                 net_in_peak_kbps: float, cpu_peak_pct: float,
                 disk_write_bursts: List[Tuple[float, float]],
                 bytes_written: float, double_write: bool):
        self.env = env
        self.series = series
        self.file_bytes = file_bytes
        self.upload_seconds = upload_seconds
        self.net_in_peak_kbps = net_in_peak_kbps
        self.cpu_peak_pct = cpu_peak_pct
        #: Distinct disk-write bursts (from the 1 s sampler).
        self.disk_write_bursts = disk_write_bursts
        self.bytes_written = bytes_written
        self.double_write = double_write

    @property
    def ok(self) -> bool:
        """The file hits the disk twice, or once without double write."""
        return len(self.disk_write_bursts) == (2 if self.double_write else 1)

    def render(self) -> str:
        mode = "faithful double write" if self.double_write else \
            "improved single write (ablation)"
        lines = [render_figure(
            f"Figure 8 — upload + WS generation ({mode}) @ 3 s",
            self.series)]
        lines.append(f"file size           : {self.file_bytes / MB(1):.1f} MB")
        lines.append(f"form handling time  : {self.upload_seconds:.2f} s")
        lines.append(f"net-in peak         : {self.net_in_peak_kbps:.0f} KB/s")
        lines.append(f"CPU peak            : {self.cpu_peak_pct:.0f}%")
        lines.append(f"disk-write bursts   : {len(self.disk_write_bursts)} "
                     f"(paper: 2 — temp file, then database)")
        lines.append(f"total bytes written : {self.bytes_written:.0f} "
                     f"({self.bytes_written / self.file_bytes:.2f}x file size)")
        return "\n".join(lines)


def run_fig8(file_bytes: Optional[int] = None,
             lan_bandwidth: float = Gbps(1),
             double_write: bool = True,
             seed: int = 0) -> Fig8Result:
    """Run the Figure 8 scenario and return its result."""
    file_bytes = file_bytes or int(5 * MB(1))
    config = OnServeConfig(double_write=double_write)
    env = standard_env(config=config, lan_bandwidth=lan_bandwidth, seed=seed)
    tb, stack, sim = env.testbed, env.stack, env.sim

    from repro.workloads.executables import make_payload
    payload = make_payload("fixed", size=file_bytes, runtime="30")

    disk_log = tb.appliance_host.disk.record()
    env.mark()
    written_before = tb.appliance_host.disk.bytes_written()
    t0 = sim.now
    sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "upload.bin", payload,
        description="figure 8 upload", params_spec="p1:string"))
    upload_seconds = sim.now - t0
    sim.run(until=sim.now + env.sampler.interval)

    # The two file writes happen well under a second apart on this
    # calibration, so resolve them from the disk's operation log rather
    # than a sampled series: count write operations moving a meaningful
    # fraction of the file.  The log opened with the window.
    bursts = [(t, t) for (t, direction, nbytes) in disk_log
              if direction == "write" and nbytes >= 0.1 * file_bytes]
    disk_log.close()

    net_in = env.sampler["net_in_kbps"].slice(env.t_start, sim.now)
    cpu = env.sampler["cpu_pct"].slice(env.t_start, sim.now)

    return Fig8Result(
        env=env,
        series=env.figure_series(),
        file_bytes=file_bytes,
        upload_seconds=upload_seconds,
        net_in_peak_kbps=net_in.max(),
        cpu_peak_pct=cpu.max(),
        disk_write_bursts=bursts,
        bytes_written=tb.appliance_host.disk.bytes_written() - written_before,
        double_write=double_write,
    )
