"""Simulated hardware: CPUs, disks, NICs, links and networks.

Every device is built on the :class:`~repro.hardware.fairshare.FairShareServer`
model: a capacity (cores, bytes/second) divided equally among the flows
active at any instant, with exact lazy integration of per-flow progress so
that telemetry can sample cumulative counters at arbitrary times.

The model is deliberately simple — equal share per flow, optional per-flow
rate cap, bottleneck-link routing — but it is deterministic, conserves
work exactly, and reproduces the contention effects (upload plateaus,
saturation under concurrency) that the paper's evaluation reports.
"""

from repro.hardware.cpu import Cpu
from repro.hardware.disk import Disk
from repro.hardware.fairshare import FairShareServer
from repro.hardware.host import Host
from repro.hardware.network import Link, Network
from repro.hardware.op import HardwareOp

__all__ = ["FairShareServer", "Cpu", "Disk", "HardwareOp", "Host", "Link",
           "Network"]
