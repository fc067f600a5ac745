"""Shared scenario plumbing: standard environment + instrumentation."""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

from repro.core.fabric import FabricStack, deploy_fabric
from repro.core.onserve import OnServeConfig
from repro.grid.testbed import Testbed, build_testbed
from repro.simkernel.kernel import Simulator
from repro.telemetry.sampler import HostSampler
from repro.telemetry.series import TimeSeries
from repro.units import KBps

__all__ = ["ScenarioEnv", "percentile", "standard_env"]

#: The paper's monitoring interval (Figures 6-8 captions: "3 seconds").
PAPER_SAMPLE_INTERVAL = 3.0


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


class ScenarioEnv:
    """A deployed testbed + stack + appliance instrumentation."""

    def __init__(self, testbed: Testbed, stack: FabricStack,
                 sampler: Optional[HostSampler],
                 fine_sampler: Optional[HostSampler]):
        self.testbed = testbed
        self.stack = stack
        self.sim = testbed.sim
        #: The 3-second sampler (what the paper's figures plot).
        self.sampler = sampler
        #: A 1-second sampler for sharper shape assertions.
        self.fine_sampler = fine_sampler
        self.t_start = self.sim.now

    def figure_series(self, metrics=("cpu_pct", "disk_read_kbps",
                                     "disk_write_kbps", "net_in_kbps",
                                     "net_out_kbps")) -> List[TimeSeries]:
        """The paper-interval series, cropped to the measured window."""
        return [self.sampler[m].slice(self.t_start, self.sim.now)
                for m in metrics]

    def mark(self) -> None:
        """Start the measured window now (after setup noise)."""
        self.t_start = self.sim.now


def standard_env(appliance_uplink: float = KBps(85),
                 config: Optional[OnServeConfig] = None,
                 sample_interval: Optional[float] = PAPER_SAMPLE_INTERVAL,
                 seed: int = 0,
                 fabric: Optional[Dict[str, Any]] = None,
                 **testbed_kw) -> ScenarioEnv:
    """Deploy the standard evaluation environment.

    *fabric* holds :func:`~repro.core.fabric.deploy_fabric` keywords
    (``replicas``, ``router``, ``self_healing`` and the lease timings);
    without it the deployment is the paper's single appliance.  Returns
    a :class:`ScenarioEnv` with samplers attached *after* deployment so
    the series start clean — or none for ``sample_interval=None``.
    Reading a fair-share counter changes no state, but the fabric
    scenarios (scaleout, chaos, controltower, datapath) still run
    unsampled: turning their samplers back on changes their reports.
    """
    testbed_kw.setdefault("n_sites", 4)
    testbed_kw.setdefault("nodes_per_site", 4)
    testbed_kw.setdefault("cores_per_node", 8)
    sim = Simulator(seed=seed)
    testbed = build_testbed(sim=sim, appliance_uplink=appliance_uplink,
                            **testbed_kw)
    stack = sim.run(until=deploy_fabric(testbed, config, **(fabric or {})))
    if sample_interval is None:
        return ScenarioEnv(testbed, stack, None, None)
    sampler = HostSampler(testbed.appliance_host, interval=sample_interval)
    fine = HostSampler(testbed.appliance_host, interval=1.0)
    return ScenarioEnv(testbed, stack, sampler, fine)
