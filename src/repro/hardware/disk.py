"""Disk model: shared bandwidth plus per-operation latency.

Reads and writes share one bandwidth pool (a fair-share server), so
concurrent operations slow each other down; each operation additionally
pays a fixed access latency before data starts moving.  Separate
cumulative read/write byte counters feed the telemetry sampler — the
paper's Figures 6–8 plot exactly these two series.  A reader that needs
the operations themselves opens an :class:`OpLog` (:meth:`Disk.record`)
before issuing them: a disk with no log open keeps nothing per
operation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import HardwareError
from repro.hardware.fairshare import FairShareServer
from repro.hardware.op import HardwareOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.kernel import Simulator

__all__ = ["Disk", "OpLog"]


class OpLog(list):
    """Every operation issued on one disk since the log opened:
    ``(start_time, direction, bytes)`` tuples, in issue order."""

    __slots__ = ("_disk",)

    def __init__(self, disk: "Disk"):
        super().__init__()
        self._disk = disk

    def close(self) -> None:
        """Stop logging; what was logged stays readable."""
        disk = self._disk
        # By identity: two logs holding the same entries compare equal.
        disk._logs = [log for log in disk._logs if log is not self]


class Disk:
    """A single disk with bandwidth and access-latency modelling.

    Parameters
    ----------
    sim:
        Owning simulator.
    bandwidth:
        Sustained transfer rate in bytes/second, shared by all in-flight
        operations.
    access_latency:
        Seconds of seek/queue latency paid once per operation.
    capacity_bytes:
        Total disk size; writes beyond it raise :class:`HardwareError`.
    """

    def __init__(self, sim: "Simulator", bandwidth: float,
                 access_latency: float = 0.005,
                 capacity_bytes: float = float("inf"), name: str = "disk"):
        if access_latency < 0:
            raise HardwareError(f"{name}: negative access latency")
        self.sim = sim
        self.bandwidth = float(bandwidth)
        self.access_latency = access_latency
        self.capacity_bytes = capacity_bytes
        self.name = name
        self.used_bytes = 0.0
        self._server = FairShareServer(sim, capacity=bandwidth, name=name)
        #: The open operation logs (see :meth:`record`).
        self._logs: list[OpLog] = []

    def record(self) -> OpLog:
        """Log every operation issued from now on.

        A scenario reads it to resolve events finer than any sampler
        (Figure 8's two write bursts); :meth:`OpLog.close` stops it.
        """
        log = OpLog(self)
        self._logs.append(log)
        return log

    # -- operations ---------------------------------------------------------

    def read(self, nbytes: float) -> HardwareOp:
        """Read *nbytes*; the returned completion event's value is the
        elapsed time."""
        return self._operation(nbytes, "read")

    def write(self, nbytes: float) -> HardwareOp:
        """Write *nbytes*; the returned completion event's value is the
        elapsed time.

        Raises :class:`HardwareError` immediately if the disk would
        overflow — a full appliance disk is a real failure mode.
        """
        if nbytes < 0:
            raise HardwareError(f"{self.name}: negative write size")
        if self.used_bytes + nbytes > self.capacity_bytes:
            raise HardwareError(
                f"{self.name}: disk full "
                f"({self.used_bytes:.0f}+{nbytes:.0f} > {self.capacity_bytes:.0f})"
            )
        self.used_bytes += nbytes
        return self._operation(nbytes, "write")

    def _operation(self, nbytes: float, direction: str) -> HardwareOp:
        if nbytes < 0:
            raise HardwareError(f"{self.name}: negative {direction} size")
        if self._logs:
            entry = (self.sim.now, direction, nbytes)
            for log in self._logs:
                log.append(entry)
        return HardwareOp(self.sim, f"{self.name}:{direction}", self._server,
                          self.access_latency, nbytes, (direction,))

    # -- counters -------------------------------------------------------------

    def bytes_read(self) -> float:
        """Cumulative bytes read (including in-flight partial progress)."""
        return self._server.cumulative("read")

    def bytes_written(self) -> float:
        """Cumulative bytes written (including in-flight partial progress)."""
        return self._server.cumulative("write")

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<Disk {self.name!r} bw={self.bandwidth:.0f}B/s>"
