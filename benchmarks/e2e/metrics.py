"""The metric catalogue: every name the benchmark prints, once.

``BENCHMARK.json`` is the projection of this table onto the driver's
schema (name, unit, better, bound); ``tests/test_manifest.py`` holds the
two together.  ``clock`` says how far to trust a number: ``sim`` and
``count`` values repeat exactly for a seed, ``host`` values are host
time and noisy (the end-to-end ones are held against the host's speed,
see ``speed.py``).

Two bounds apply to a simulated-clock metric.  Across *seeds* its value
moves with the request interleaving, so the contract bound (what the
acceptance runs check, each with its own seed) is set from the measured
seed-to-seed spread.  At one *fixed seed* the value is exact, so
``compare`` holds it to ``SIM_EXACT_BOUND`` when both result files
carry the same seed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from benchmarks.e2e.drivers import DRIVERS
from benchmarks.e2e.layers import LAYERS, STDLIB_LAYERS
from benchmarks.e2e.workloads import WORKLOADS

__all__ = ["END_TO_END", "PER_LAYER", "CLASS_LATENCY", "SIM_EXACT_BOUND",
           "by_name", "manifest"]

#: Regression bound for an exact (same-seed) simulated-clock comparison.
SIM_EXACT_BOUND = 0.01

RUN_SECONDS = 24
COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]


def _m(name: str, unit: str, better: str, clock: str,
       bound: Optional[float] = None) -> Dict[str, Any]:
    return {"name": name, "unit": unit, "better": better, "clock": clock,
            "bound": bound}


#: What a user of the system sees; emitted by every workload.  The
#: README says whom each serves and how each bound was chosen.
END_TO_END: List[Dict[str, Any]] = [
    _m("invoke_p50_sim_s", "s", "lower", "sim", 0.20),
    _m("invoke_tail_sim_s", "s", "lower", "sim", 0.25),
    _m("goodput_sim_ops_per_s", "ops/s", "higher", "sim", 0.15),
    _m("host_ms_per_op", "ms", "lower", "host", 0.25),
    _m("host_peak_rss_mb", "MB", "lower", "host", 0.10),
    _m("setup_s", "s", "lower", "host", 0.25),
]

#: Per-class latencies (the issue's hot / cold / publish split), from
#: the untraced full-length passes.  Not every workload has every class
#: and the driver's schema wants every metric from every workload, so
#: these live in the result files and ``compare``, not in
#: ``BENCHMARK.json``; a class a workload does not contain reads 0.
CLASS_LATENCY: List[Dict[str, Any]] = [
    _m("core.hot_invoke_p50_sim_s", "s", "lower", "sim"),
    _m("core.hot_invoke_p99_sim_s", "s", "lower", "sim"),
    _m("core.cold_invoke_p50_sim_s", "s", "lower", "sim"),
    _m("core.cold_invoke_p90_sim_s", "s", "lower", "sim"),
    _m("core.publish_p50_sim_s", "s", "lower", "sim"),
    _m("core.publish_p90_sim_s", "s", "lower", "sim"),
]

_T1_SIM = [
    "ws.sim_transfer_s_per_op", "ws.sim_compute_s_per_op",
    "core.sim_compute_s_per_op", "core.sim_detect_lag_s_per_op",
    "cyberaide.sim_agent_s_per_op", "db.sim_storage_s_per_op",
    "grid.sim_transfer_s_per_op", "grid.sim_queue_s_per_op",
    "grid.sim_compute_s_per_op", "grid.sim_notify_s_per_op",
]

#: name -> (unit, better)
_T1_COUNTS = {
    "simkernel.events_per_op": ("count", "lower"),
    "telemetry.bus_events_per_op": ("count", "lower"),
    "ws.soap_requests_per_op": ("count", "lower"),
    "ws.cache_hit_ratio": ("ratio", "higher"),
    "ws.router_rebalances_per_kop": ("count", "lower"),
    "ws.router_failovers": ("count", "lower"),
    "ws.router_dedup_hits": ("count", "lower"),
    "ws.router_sheds": ("count", "lower"),
    "core.materializations": ("count", "lower"),
    "core.coalesce_join_ratio": ("ratio", "higher"),
    "core.poll_rounds_per_op": ("count", "lower"),
    "core.dedup_duplicates": ("count", "lower"),
    "cyberaide.agent_auth_per_op": ("count", "lower"),
    "grid.gram_exchanges_per_op": ("count", "lower"),
    "grid.gram_control_bytes_per_op": ("B", "lower"),
    "grid.notify_delivered_per_op": ("count", "lower"),
    "db.replica_reads_per_op": ("count", "higher"),
    "db.lock_wait_sim_s_per_op": ("s", "lower"),
    "db.fetch_resident_peak_mb": ("MB", "lower"),
    "db.wal_appends_per_op": ("count", "lower"),
    "hardware.uplink_bytes_per_op": ("B", "lower"),
    "hardware.uplink_busy_ratio": ("ratio", "lower"),
    "hardware.appliance_cpu_busy_ratio": ("ratio", "lower"),
}


def _driver_unit(name: str, kind: str) -> str:
    if kind != "per_s":
        return kind  # "us" or "ms"
    return "MB/s" if "_mb_per_s" in name else "1/s"


PER_LAYER: List[Dict[str, Any]] = (
    [_m(n, "s", "lower", "sim") for n in _T1_SIM]
    + [_m("telemetry.sim_unattributed_share", "ratio", "lower", "sim")]
    + [_m(n, unit, better, "count")
       for n, (unit, better) in _T1_COUNTS.items()]
    + [_m(f"{layer}.host_self_ms_per_op", "ms", "lower", "host")
       for layer in LAYERS + STDLIB_LAYERS + ("harness",)]
    + [_m(n, _driver_unit(n, kind),
          "higher" if kind == "per_s" else "lower", "host")
       for n, (_build, kind) in DRIVERS.items()]
    + [_m("harness.profiled_calls_per_op", "count", "lower", "count"),
       _m("harness.cpu_over_wall_ratio", "ratio", "higher", "host"),
       _m("scenarios.fig7_upload_err_ratio", "ratio", "lower", "sim")]
)


def by_name() -> Dict[str, Dict[str, Any]]:
    return {m["name"]: m for m in END_TO_END + PER_LAYER}


def manifest() -> Dict[str, Any]:
    """The ``BENCHMARK.json`` this catalogue stands for."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": spec["why"]}
                      for name, spec in WORKLOADS.items()],
        "end_to_end": [{"name": m["name"], "unit": m["unit"],
                        "better": m["better"], "bound": m["bound"]}
                       for m in END_TO_END],
        "per_layer": [{"name": m["name"], "unit": m["unit"],
                       "better": m["better"]} for m in PER_LAYER],
    }
