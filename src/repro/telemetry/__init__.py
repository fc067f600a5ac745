"""Telemetry: time-series sampling of simulated hosts.

The paper's evaluation (Figures 6-8) plots CPU utilization, disk read/write
rates and network in/out rates of the appliance host, sampled every
3 seconds.  :class:`~repro.telemetry.sampler.HostSampler` reproduces that
instrument: it runs as a simulation process, reads the host's exact
cumulative counters each interval, and records per-interval rates into
:class:`~repro.telemetry.series.TimeSeries` objects.
"""

from repro.telemetry.critical_path import Attribution, analyze_request
from repro.telemetry.events import EventBus, TelemetryEvent, bus
from repro.telemetry.export import chrome_trace, prometheus_text
from repro.telemetry.gauges import Gauge, GaugeBoard, gauges
from repro.telemetry.metrics import (
    LatencyHistogram, MetricsRegistry, OperationMetrics,
)
from repro.telemetry.profiler import KernelProfiler, profile
from repro.telemetry.report import from_csv, render_figure, series_table, to_csv
from repro.telemetry.sampler import HostSampler
from repro.telemetry.series import TimeSeries

__all__ = ["TimeSeries", "HostSampler", "render_figure", "series_table",
           "to_csv", "from_csv", "LatencyHistogram", "MetricsRegistry",
           "OperationMetrics", "TelemetryEvent", "EventBus", "bus",
           "Gauge", "GaugeBoard", "gauges", "prometheus_text",
           "chrome_trace", "Attribution", "analyze_request",
           "KernelProfiler", "profile"]
