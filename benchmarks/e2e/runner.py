"""Running passes as child processes and folding them into metrics.

Every pass is a fresh ``python -m benchmarks.e2e pass`` child so that
``setup_s`` and ``host_peak_rss_mb`` are whole-process figures and no
pass inherits another's warmed allocator or caches.  Untraced passes run
one at a time.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.e2e import stats
from benchmarks.e2e.metrics import CLASS_LATENCY, END_TO_END
from benchmarks.e2e.paths import ROOT

__all__ = ["BenchmarkError", "ROOT", "RESULTS_DIR", "TRACE_SCALE",
           "QUICK_SCALE", "run_child", "setup_samples", "untraced",
           "summarize",
           "traced_layer_metrics", "fig7_check"]

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: The traced passes (T1, T2) run at half length: cProfile more than
#: doubles host time, and a traced run has the budget of an untraced
#: one.  Their per-op figures describe the first half of the window; an
#: untraced pass of the same length is their zero-perturbation reference.
TRACE_SCALE = 0.5
QUICK_SCALE = 0.1
SETUP_SAMPLES = 5
PASS_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    """A correctness check of the benchmark itself failed."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    extra = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        extra.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(extra)
    return env


def _pass_cmd(workload: str, seed: int, mode: str = "plain",
              scale: float = 1.0, setup_only: bool = False,
              spans: Optional[Path] = None) -> List[str]:
    cmd = [sys.executable, "-m", "benchmarks.e2e", "pass",
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--scale", repr(scale)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    return cmd


def run_child(workload: str, seed: int, **kwargs: Any) -> Dict[str, Any]:
    """Run one pass child to its end; its record is the last stdout line."""
    try:
        done = subprocess.run(_pass_cmd(workload, seed, **kwargs), cwd=ROOT,
                              env=_child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError("a pass exceeded its time limit") from None
    if done.returncode != 0:
        raise BenchmarkError(f"a pass exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def setup_samples(workload: str, seed: int, scale: float,
                  have: Sequence[float]) -> List[float]:
    """*have* topped up to ``SETUP_SAMPLES`` by set-up-only children."""
    setups = list(have)
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(workload, seed, scale=scale,
                                setup_only=True)["host"]["setup_s"])
    return setups


def untraced(workload: str, seed: int, seconds: float
             ) -> Dict[str, List[Any]]:
    """As many untraced passes of one workload as fit *seconds*.

    At least one; another starts only if the longest so far would still
    end inside the budget.  One unmeasured set-up-only child runs first
    so that byte-code and the page cache are warm for every measured
    child alike.
    """
    run_child(workload, seed, setup_only=True)
    records: List[Dict[str, Any]] = []
    longest = 0.0
    began = time.perf_counter()
    while not records or time.perf_counter() - began + longest <= seconds:
        t0 = time.perf_counter()
        records.append(run_child(workload, seed))
        longest = max(longest, time.perf_counter() - t0)
    setups = setup_samples(workload, seed, 1.0,
                           [r["host"]["setup_s"] for r in records
                            if "host" in r])
    return {"records": records, "setups": setups}


def _check_passes(records: Sequence[Dict[str, Any]]) -> List[str]:
    """Violations of the per-set invariants (empty when all hold)."""
    problems = []
    first = records[0]
    for r in records:
        tag = f"{r['workload']}/{r['mode']}"
        if r["failed"]:
            problems.append(f"{tag}: {r['failed']} of {r['attempted']} ops "
                            f"failed ({'; '.join(r['failures'])})")
        if r["dedup_duplicates"]:
            problems.append(f"{tag}: {r['dedup_duplicates']} invocation(s) "
                            "executed twice")
        if "sim" not in r:
            continue
        if r["scale"] == first["scale"] and (
                r["schedule_digest"] != first["schedule_digest"]
                or r["sim"] != first["sim"]):
            problems.append(f"{tag}: simulated metrics differ from pass 1 "
                            "of the same seed")
    return problems


def summarize(records: Sequence[Dict[str, Any]], setups: Sequence[float]
              ) -> Dict[str, Any]:
    """Fold one workload's untraced passes into its end-to-end record.

    Simulated metrics come from pass 1 (all passes were checked equal);
    host metrics are medians over the passes, ``setup_s`` over every
    set-up sample, each with its quartiles and values.
    """
    problems = _check_passes(records)
    first = records[0]
    measured = [r for r in records if "host" in r]
    out: Dict[str, Any] = {
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "problems": problems,
        "passes": len(records),
        "schedule_digest": first["schedule_digest"],
        "end_to_end": {}, "class_latency": {},
    }
    out["failed_ratio"] = out["failed"] / out["attempted"]
    if not measured or "sim" not in first:
        return out
    sim = first["sim"]
    out["samples"] = sim["samples"]
    out["tail_percentile"] = sim["tail_percentile"]
    host = {name: [r["host"][name] for r in measured]
            for name in ("host_ms_per_op", "host_peak_rss_mb")}
    host["setup_s"] = list(setups)
    for m in END_TO_END:
        name = m["name"]
        if m["clock"] == "sim":
            entry = {"value": sim["values"][name], "n": 1}
        else:
            entry = {"value": statistics.median(host[name]),
                     "n": len(host[name]), "values": host[name],
                     **{k: v for k, v in stats.quartiles(host[name]).items()
                        if k != "median"}}
        out["end_to_end"][name] = {**entry, "unit": m["unit"]}
    for m in CLASS_LATENCY:
        out["class_latency"][m["name"]] = {
            "value": sim["values"].get(m["name"], 0.0), "unit": m["unit"]}
    out["harness"] = {
        "pass_spread_ratio": stats.minmax_share(host["host_ms_per_op"]),
        "host_raw_ms_per_op": statistics.median(
            r["host"]["host_raw_ms_per_op"] for r in measured),
        "host_slowdown_ratio": statistics.median(
            r["host"]["host_slowdown_ratio"] for r in measured),
        "cpu_over_wall_ratio": statistics.median(
            r["host"]["cpu_over_wall_ratio"] for r in measured),
    }
    return out


def traced_layer_metrics(t1: Dict[str, Any], t2: Dict[str, Any],
                         reference: Optional[Dict[str, Any]] = None
                         ) -> Dict[str, Any]:
    """Per-layer values of one workload from its T1 and T2 passes.

    *reference* is an untraced pass of the same length when one exists:
    the simulated metrics of T1 and T2 must then equal it bit for bit
    (zero perturbation).  Returns ``{"values": ..., "problems": [...]}``.
    """
    problems = _check_passes([t1]) + _check_passes([t2])
    values: Dict[str, float] = {}
    if "t1" not in t1 or "t2" not in t2:
        return {"values": values, "problems": problems}
    values.update(t1["t1"])
    values.update(t2["t2"])
    values["harness.cpu_over_wall_ratio"] = t1["host"]["cpu_over_wall_ratio"]
    for traced in (t1, t2):
        if reference is not None and reference.get("sim") != traced["sim"]:
            problems.append(
                f"{traced['workload']}: {traced['mode']} simulated "
                "metrics differ from the untraced pass")
    check = t1["t1_check"]
    gap = abs(check["bucket_mean_s"] - check["latency_mean_s"])
    if gap > 0.01 * check["latency_mean_s"]:
        problems.append(
            f"{t1['workload']}: T1 buckets sum to "
            f"{check['bucket_mean_s']:.4f} s/op, mean latency is "
            f"{check['latency_mean_s']:.4f} s/op")
    profiled, window = t2["t2_check"]["profiled_s"], \
        t2["t2_check"]["window_s"]
    if abs(profiled - window) > 0.02 * window:
        problems.append(f"{t2['workload']}: T2 layers sum to "
                        f"{profiled:.3f} s, window took {window:.3f} s")
    return {"values": values, "problems": problems,
            "unreconciled_requests": check["unreconciled_requests"]}


def fig7_check() -> Dict[str, Any]:
    """Figure 7 at seed 0 against the committed golden series.

    Returns the paper error of the upload time (the paper reads "about
    60 seconds" off its Figure 7) and whether the series still matches
    ``tests/scenarios/golden/fig7.csv`` byte for byte.
    """
    from repro.scenarios import run_fig7
    from repro.telemetry.report import to_csv
    result = run_fig7(seed=0)
    golden = ROOT / "tests" / "scenarios" / "golden" / "fig7.csv"
    matches = (golden.read_text() == to_csv(result.series) + "\n"
               if golden.exists() else None)
    return {"upload_s": result.upload_seconds, "paper_s": 60.0,
            "err_ratio": abs(result.upload_seconds - 60.0) / 60.0,
            "matches_golden": matches,
            "problems": ["fig7 at seed 0 no longer matches its golden CSV"]
            if matches is False else []}
