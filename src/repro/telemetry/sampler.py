"""Periodic host sampler reproducing the paper's monitoring instrument.

The paper plots, for the appliance host, at a 3-second interval:

* CPU utilization (percent),
* hard-disk read and write rates,
* network input and output rates.

:class:`HostSampler` runs as a simulation process.  Each interval it reads
the host's *exact* cumulative counters (the hardware layer integrates work
lazily, so no precision is lost between samples) and appends the
per-interval rate to one :class:`~repro.telemetry.series.TimeSeries` per
metric.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.hardware.host import Host
from repro.telemetry.series import TimeSeries
from repro.units import KB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.kernel import Simulator

__all__ = ["HostSampler"]

#: Metric names produced by the sampler.
METRICS = ("cpu_pct", "disk_read_kbps", "disk_write_kbps",
           "net_in_kbps", "net_out_kbps")


class HostSampler:
    """Samples one host's counters every *interval* simulated seconds.

    Parameters
    ----------
    host:
        The host to instrument.
    interval:
        Sampling period; the paper used 3 seconds.
    autostart:
        Start sampling immediately (default).  Pass ``False`` and call
        :meth:`start` to begin at a later simulated time.
    """

    def __init__(self, host: Host, interval: float = 3.0,
                 autostart: bool = True):
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.host = host
        self.sim: "Simulator" = host.sim
        self.interval = interval
        self.series: Dict[str, TimeSeries] = {
            "cpu_pct": TimeSeries(f"{host.name}.cpu", unit="%"),
            "disk_read_kbps": TimeSeries(f"{host.name}.disk_read", unit="KB/s"),
            "disk_write_kbps": TimeSeries(f"{host.name}.disk_write", unit="KB/s"),
            "net_in_kbps": TimeSeries(f"{host.name}.net_in", unit="KB/s"),
            "net_out_kbps": TimeSeries(f"{host.name}.net_out", unit="KB/s"),
        }
        self._running = False
        self._process = None
        if autostart:
            self.start()

    # -- control -----------------------------------------------------------

    def start(self) -> None:
        """Begin sampling (idempotent)."""
        if self._running:
            return
        self._running = True
        self._process = self.sim.process(self._run(), name=f"sampler:{self.host.name}")

    def stop(self) -> None:
        """Stop after the current interval completes."""
        self._running = False

    # -- access ------------------------------------------------------------

    def __getitem__(self, metric: str) -> TimeSeries:
        return self.series[metric]

    @property
    def cpu(self) -> TimeSeries:
        return self.series["cpu_pct"]

    @property
    def disk_write(self) -> TimeSeries:
        return self.series["disk_write_kbps"]

    @property
    def net_in(self) -> TimeSeries:
        return self.series["net_in_kbps"]

    @property
    def net_out(self) -> TimeSeries:
        return self.series["net_out_kbps"]

    # -- internals -----------------------------------------------------------

    def _snapshot(self) -> Dict[str, float]:
        host = self.host
        return {
            "busy": host.cpu.busy_core_seconds(),
            "disk_read": host.disk.bytes_read(),
            "disk_write": host.disk.bytes_written(),
            "net_in": host.net_bytes_in(),
            "net_out": host.net_bytes_out(),
        }

    def _run(self):
        prev = self._snapshot()
        prev_t = self.sim.now
        while self._running:
            yield self.sim.timeout(self.interval)
            now = self.sim.now
            cur = self._snapshot()
            dt = now - prev_t
            cores = self.host.cpu.cores
            self.series["cpu_pct"].append(
                now, 100.0 * (cur["busy"] - prev["busy"]) / (cores * dt))
            self.series["disk_read_kbps"].append(
                now, (cur["disk_read"] - prev["disk_read"]) / dt / KB(1))
            self.series["disk_write_kbps"].append(
                now, (cur["disk_write"] - prev["disk_write"]) / dt / KB(1))
            self.series["net_in_kbps"].append(
                now, (cur["net_in"] - prev["net_in"]) / dt / KB(1))
            self.series["net_out_kbps"].append(
                now, (cur["net_out"] - prev["net_out"]) / dt / KB(1))
            prev, prev_t = cur, now
