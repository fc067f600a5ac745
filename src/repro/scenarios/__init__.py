"""Experiment harnesses: one module per paper artefact.

Each scenario deploys a standard testbed + onServe stack, instruments
the appliance host with the paper's 3-second sampler, drives the
workload, and returns a result object carrying the telemetry series and
the headline numbers.  The ``benchmarks/`` tree calls these to print the
paper-shaped output; ``tests/scenarios`` asserts the expected shapes
(see DESIGN.md §4).

* :mod:`~repro.scenarios.fig6` — WS execution, small file (Figure 6)
* :mod:`~repro.scenarios.fig7` — WS execution, ~5 MB file (Figure 7)
* :mod:`~repro.scenarios.fig8` — upload + service generation (Figure 8)
* :mod:`~repro.scenarios.scalability` — §VIII.D concurrency sweeps
* :mod:`~repro.scenarios.overhead` — §VIII.B overhead-vs-runtime study
* :mod:`~repro.scenarios.smallfiles` — §VIII.B many-small-files claim
* :mod:`~repro.scenarios.bottleneck` — §VIII.D per-layer latency
  attribution of one traced execution
* :mod:`~repro.scenarios.faults` — fault-injection matrix: every
  failure mode × its recovery invariant
* :mod:`~repro.scenarios.throughput` — invocation hot-path ablation:
  caches + single-flight coalescing off vs on under concurrency
* :mod:`~repro.scenarios.datapath` — grid data-path ablation:
  per-operation control path vs pooled GSI channels and staging by
  content, once
* :mod:`~repro.scenarios.scaleout` — replica fabric sweep: sharded
  stateless appliances behind the request router, 1 → 16 replicas
* :mod:`~repro.scenarios.controltower` — fleet observability: two
  replays over the recorded request stream — a burn-rate alert leading
  the hard violation under injected outages, hot-shard localization of
  skewed load — plus kernel profiling
* :mod:`~repro.scenarios.chaos` — self-healing drill: kill replicas at
  peak load; zero lost requests, bounded re-route detection, restart
  rejoins the ring
* :mod:`~repro.scenarios.notify` — event-driven job lifecycle: mixed
  notify/poll testbed, push detection lag vs the poll floor, durable
  queue drained
* :mod:`~repro.scenarios.dbscale` — DB tier scale-out ablation: upload
  storm vs invocation p95 with MVCC snapshot reads, WAL-shipping read
  replicas and chunked BLOB streaming on/off
"""

from repro.scenarios.bottleneck import BottleneckResult, run_bottleneck
from repro.scenarios.chaos import ChaosResult, run_chaos
from repro.scenarios.common import ScenarioEnv, standard_env
from repro.scenarios.controltower import ControlTowerResult, run_controltower
from repro.scenarios.datapath import DatapathResult, run_datapath
from repro.scenarios.dbscale import DbScaleResult, run_dbscale
from repro.scenarios.faults import FaultsResult, run_faults
from repro.scenarios.fig6 import Fig6Result, run_fig6
from repro.scenarios.fig7 import Fig7Result, run_fig7
from repro.scenarios.fig8 import Fig8Result, run_fig8
from repro.scenarios.notify import NotifyResult, run_notify
from repro.scenarios.overhead import OverheadResult, run_overhead
from repro.scenarios.scalability import ScalabilityResult, run_scalability
from repro.scenarios.scaleout import ScaleoutResult, run_scaleout
from repro.scenarios.smallfiles import SmallFilesResult, run_smallfiles
from repro.scenarios.throughput import ThroughputResult, run_throughput

__all__ = [
    "ScenarioEnv", "standard_env",
    "Fig6Result", "run_fig6",
    "Fig7Result", "run_fig7",
    "Fig8Result", "run_fig8",
    "ScalabilityResult", "run_scalability",
    "OverheadResult", "run_overhead",
    "SmallFilesResult", "run_smallfiles",
    "BottleneckResult", "run_bottleneck",
    "FaultsResult", "run_faults",
    "ThroughputResult", "run_throughput",
    "DatapathResult", "run_datapath",
    "ScaleoutResult", "run_scaleout",
    "ControlTowerResult", "run_controltower",
    "ChaosResult", "run_chaos",
    "NotifyResult", "run_notify",
    "DbScaleResult", "run_dbscale",
]
