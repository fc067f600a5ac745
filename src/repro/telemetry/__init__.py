"""Telemetry: what a run did, on the simulated clock and the host's.

* :class:`~repro.telemetry.sampler.HostSampler` is the paper's instrument
  for Figures 6-8: every 3 seconds it reads a host's exact cumulative
  counters and records per-interval CPU, disk and network rates into
  :class:`~repro.telemetry.series.TimeSeries` objects.
* :func:`~repro.telemetry.events.bus` is the per-run event stream every
  layer feeds; each SOAP crossing's one record is its ``ws.request``
  event, and a reader that needs every event of some kinds records them.
* :func:`~repro.telemetry.gauges.gauges` holds change-driven queue and
  utilization levels.
* :func:`~repro.telemetry.critical_path.analyze_request` splits one
  request's latency into per-layer queueing, transfer and compute.
* :class:`~repro.telemetry.profiler.KernelProfiler` charges the host's
  wall time to the kernel's handlers.
"""

from repro.telemetry.critical_path import Attribution, analyze_request
from repro.telemetry.events import EventBus, TelemetryEvent, bus
from repro.telemetry.gauges import Gauge, GaugeBoard, gauges
from repro.telemetry.profiler import KernelProfiler, profile
from repro.telemetry.report import from_csv, render_figure, series_table, to_csv
from repro.telemetry.sampler import HostSampler
from repro.telemetry.series import TimeSeries

__all__ = ["TimeSeries", "HostSampler", "render_figure", "series_table",
           "to_csv", "from_csv", "TelemetryEvent", "EventBus", "bus",
           "Gauge", "GaugeBoard", "gauges", "Attribution", "analyze_request",
           "KernelProfiler", "profile"]
