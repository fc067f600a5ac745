"""A simulated host: CPU + disk + memory, attached to a network.

Hosts are where middleware components "run": component code expresses its
resource consumption as host operations (``compute``, ``disk_write``,
``send``), and telemetry samples the host's counters to produce the
utilization time series the paper plots.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import HardwareError
from repro.hardware.cpu import Cpu
from repro.hardware.disk import Disk
from repro.hardware.network import Network
from repro.hardware.op import HardwareOp
from repro.units import GB, MBps

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.kernel import Simulator

__all__ = ["Host", "HostSpec"]


class HostSpec:
    """Hardware sizing for a :class:`Host` (a tiny spec object)."""

    def __init__(self, cores: int = 2, cpu_speed: float = 1.0,
                 disk_bandwidth: float = MBps(60),
                 disk_latency: float = 0.005,
                 disk_capacity: float = GB(100),
                 memory_bytes: float = GB(4)):
        self.cores = cores
        self.cpu_speed = cpu_speed
        self.disk_bandwidth = disk_bandwidth
        self.disk_latency = disk_latency
        self.disk_capacity = disk_capacity
        self.memory_bytes = memory_bytes


class Host:
    """A named machine with CPU, disk and memory, living on a network."""

    def __init__(self, sim: "Simulator", name: str, network: Network,
                 spec: Optional[HostSpec] = None):
        spec = spec or HostSpec()
        self.sim = sim
        self.name = name
        self.network = network
        self.spec = spec
        self.cpu = Cpu(sim, cores=spec.cores, speed_factor=spec.cpu_speed,
                       name=f"{name}.cpu")
        self.disk = Disk(sim, bandwidth=spec.disk_bandwidth,
                         access_latency=spec.disk_latency,
                         capacity_bytes=spec.disk_capacity,
                         name=f"{name}.disk")
        self.memory_bytes = spec.memory_bytes
        self.memory_used = 0.0
        #: High-water mark of RAM usage (for bottleneck analyses).
        self.memory_peak = 0.0
        network.add_host(name)

    # -- resource operations (all return waitable events) ---------------------

    def compute(self, cpu_seconds: float):
        """Burn *cpu_seconds* of CPU time (processor-shared)."""
        return self.cpu.compute(cpu_seconds)

    def disk_read(self, nbytes: float) -> HardwareOp:
        """Read *nbytes* from local disk (completion event)."""
        return self.disk.read(nbytes)

    def disk_write(self, nbytes: float) -> HardwareOp:
        """Write *nbytes* to local disk (completion event)."""
        return self.disk.write(nbytes)

    def send(self, dst: "Host | str", nbytes: float,
             label: str = "") -> HardwareOp:
        """Send *nbytes* to another host over the network (completion
        event whose value is the elapsed time)."""
        dst_name = dst.name if isinstance(dst, Host) else dst
        return self.network.transfer(self.name, dst_name, nbytes, label=label)

    # -- memory (instant bookkeeping, not time-modelled) -------------------------

    def allocate_memory(self, nbytes: float) -> None:
        """Claim *nbytes* of RAM; raises when the host would swap."""
        if self.memory_used + nbytes > self.memory_bytes:
            raise HardwareError(
                f"{self.name}: out of memory "
                f"({self.memory_used:.0f}+{nbytes:.0f} > {self.memory_bytes:.0f})"
            )
        self.memory_used += nbytes
        self.memory_peak = max(self.memory_peak, self.memory_used)

    def release_memory(self, nbytes: float) -> None:
        """Release previously allocated RAM."""
        self.memory_used = max(0.0, self.memory_used - nbytes)

    # -- counters (for telemetry) -----------------------------------------------

    def net_bytes_in(self) -> float:
        return self.network.bytes_in(self.name)

    def net_bytes_out(self) -> float:
        return self.network.bytes_out(self.name)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<Host {self.name!r}>"
