"""On-demand appliance deployment.

Deployment is a simulation process: the image is fetched from a
repository host (or materializes locally when none is given), written to
the target host's disk, and each package boots in dependency order,
burning boot CPU.  The returned :class:`DeployedAppliance` records what
runs where — the onServe stack builds its components on top of it.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.appliance.image import ApplianceImage
from repro.hardware.host import Host
from repro.simkernel.events import Event
from repro.simkernel.process import Process

__all__ = ["DeployedAppliance", "deploy_image"]


class DeployedAppliance:
    """A running appliance instance on a host."""

    def __init__(self, image: ApplianceImage, host: Host,
                 deployed_at: float, ready_at: float):
        self.image = image
        self.host = host
        self.deployed_at = deployed_at
        self.ready_at = ready_at
        #: Per-package boot completion times.
        self.boot_log: List[tuple] = []
        self.running = True

    @property
    def startup_seconds(self) -> float:
        return self.ready_at - self.deployed_at

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        state = "running" if self.running else "stopped"
        return f"<DeployedAppliance {self.image.name!r} on {self.host.name} {state}>"


def deploy_image(image: ApplianceImage, host: Host,
                 repository: Optional[Host] = None) -> Process:
    """Deploy *image* onto *host* (a simulation process).

    When *repository* is given, the image bytes first travel from there
    over the network (the on-demand download); the process-event's value
    is the :class:`DeployedAppliance`.
    """
    sim = host.sim

    def op() -> Generator[Event, None, DeployedAppliance]:
        started = sim.now
        if repository is not None and repository.name != host.name:
            yield repository.send(host, image.size_bytes,
                                  label=f"image:{image.image_id}")
        yield host.disk_write(image.size_bytes)
        appliance = DeployedAppliance(image, host, started, ready_at=0.0)
        for package in image.packages:
            if package.boot_cpu_seconds > 0:
                yield host.compute(package.boot_cpu_seconds)
            if package.boot_seconds > 0:
                yield sim.timeout(package.boot_seconds)
            appliance.boot_log.append((package.name, sim.now))
        yield sim.timeout(5.0)  # base OS settle time
        appliance.ready_at = sim.now
        return appliance

    return sim.process(op(), name=f"deploy:{image.name}")
