"""Processor-sharing multi-core CPU model.

A task asks for *cpu_seconds* of computation; all runnable tasks share the
cores equally (one task can use at most one core), exactly like a
round-robin OS scheduler viewed at a coarse timescale.  Utilization
accounting is exact, so a telemetry sampler can compute per-interval CPU%
as the paper's monitoring tool did.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import HardwareError
from repro.hardware.fairshare import FairShareServer
from repro.simkernel.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.kernel import Simulator

__all__ = ["Cpu"]


class Cpu:
    """A multi-core CPU with processor-sharing scheduling.

    Parameters
    ----------
    sim:
        Owning simulator.
    cores:
        Number of cores (capacity in cpu-seconds per second).
    speed_factor:
        Relative speed of one core; a task asking for ``s`` cpu-seconds
        occupies a core for ``s / speed_factor`` seconds.  Lets a testbed
        mix slow appliance hosts with fast supercomputer nodes.
    """

    def __init__(self, sim: "Simulator", cores: int = 1,
                 speed_factor: float = 1.0, name: str = "cpu"):
        if cores < 1:
            raise HardwareError(f"{name}: cores must be >= 1")
        if speed_factor <= 0:
            raise HardwareError(f"{name}: speed_factor must be positive")
        self.sim = sim
        self.cores = cores
        self.speed_factor = speed_factor
        self.name = name
        self._server = FairShareServer(
            sim, capacity=float(cores), per_flow_cap=1.0, name=name
        )

    def compute(self, cpu_seconds: float, tag: str = "compute") -> Event:
        """Run *cpu_seconds* of work; the event fires when it completes."""
        if cpu_seconds < 0:
            raise HardwareError(f"{self.name}: negative cpu_seconds")
        return self._server.submit(cpu_seconds / self.speed_factor,
                                   tags=("all", tag))

    def busy_core_seconds(self) -> float:
        """Total core-seconds consumed so far (exact)."""
        return self._server.work_integral()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<Cpu {self.name!r} cores={self.cores}>"
