"""Command line of the benchmark.

``python -m benchmarks.e2e run``      full measurement -> results/*.json
``python -m benchmarks.e2e compare``  verdict per (workload, metric)
``python -m benchmarks.e2e pass``     one pass (what the others spawn)
``python3 benchmarks/e2e/run.py``     the driver's contract command
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from benchmarks.e2e import runner
from benchmarks.e2e.compare import compare_files
from benchmarks.e2e.metrics import PER_LAYER
from benchmarks.e2e.passes import MODES, run_pass
from benchmarks.e2e.workloads import workload_names

__all__ = ["main", "contract_main"]

#: Host seconds per timing loop of a layer driver: the full run, and the
#: driver's contract run (which has ``--seconds`` for everything).
LOOP_S_FULL = 0.2
LOOP_S_CONTRACT = 0.04


# -- pass ---------------------------------------------------------------------

def _cmd_pass(args: argparse.Namespace, t_start: float) -> int:
    record = run_pass(args.workload, args.seed, mode=args.mode,
                      scale=args.scale, t_start=t_start,
                      spans_path=Path(args.spans) if args.spans else None,
                      setup_only=args.setup_only)
    print(json.dumps(record))
    return 0


# -- the driver's contract command --------------------------------------------------

def contract_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py")
    parser.add_argument("--workload", required=True,
                        choices=workload_names())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        if args.trace == 0:
            result = _contract_untraced(args)
        else:
            result = _contract_traced(args)
    except runner.BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


def _contract_untraced(args: argparse.Namespace) -> Dict[str, Any]:
    got = runner.untraced(args.workload, args.seed, seconds=args.seconds)
    summary = runner.summarize(got["records"], got["setups"])
    for problem in summary["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if "harness" in summary:
        h = summary["harness"]
        print(f"{summary['passes']} passes, raw host_ms_per_op "
              f"{h['host_raw_ms_per_op']:.3f}, host slowdown "
              f"{h['host_slowdown_ratio']:.3f}", file=sys.stderr)
    return {
        "correct": not summary["problems"] and bool(summary["end_to_end"]),
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in summary["end_to_end"].items()},
    }


def _contract_traced(args: argparse.Namespace) -> Dict[str, Any]:
    """T1, T2, the layer drivers and fig7, one after the other."""
    from benchmarks.e2e.drivers import run_drivers
    workload, seed = args.workload, args.seed
    spans = runner.RESULTS_DIR / f"spans-{workload}-{seed}.json"
    t1 = runner.run_child(workload, seed, mode="t1",
                          scale=runner.TRACE_SCALE, spans=spans)
    t2 = runner.run_child(workload, seed, mode="t2",
                          scale=runner.TRACE_SCALE)
    drivers = run_drivers(LOOP_S_CONTRACT)
    fig7 = runner.fig7_check()
    layer = runner.traced_layer_metrics(t1, t2)
    problems = layer["problems"] + fig7["problems"]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    values = dict(layer["values"])
    values.update(drivers)
    values["scenarios.fig7_upload_err_ratio"] = fig7["err_ratio"]
    missing = [m["name"] for m in PER_LAYER if m["name"] not in values]
    if missing:
        raise runner.BenchmarkError(f"no value for {missing}")
    return {
        "correct": not problems,
        "attempted": t1["attempted"] + t2["attempted"],
        "failed": t1["failed"] + t2["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in PER_LAYER},
    }


# -- run ------------------------------------------------------------------------

def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=runner.ROOT, capture_output=True,
                             text=True, check=True)
        return out.stdout.strip() or "nogit"
    except (OSError, subprocess.CalledProcessError):
        return "nogit"


def _traced_into(summary: Dict[str, Any], name: str, seed: int,
                 scale: float, out_path: Path) -> List[str]:
    """T1, T2 and their untraced reference for one workload; fills
    ``summary["per_layer"]`` and returns the problems found."""
    traced_scale = scale * runner.TRACE_SCALE
    print(f"[T1] {name}", flush=True)
    spans = out_path.with_name(f"{out_path.stem}-spans-{name}.json")
    t1 = runner.run_child(name, seed, mode="t1", scale=traced_scale,
                          spans=spans)
    print(f"[T2] {name}", flush=True)
    t2 = runner.run_child(name, seed, mode="t2", scale=traced_scale)
    reference = runner.run_child(name, seed, scale=traced_scale)
    layer = runner.traced_layer_metrics(t1, t2, reference=reference)
    values = layer["values"]
    if "host" in reference and "host" in t2:
        values["harness.trace_overhead_ratio"] = (
            t2["host"]["host_raw_ms_per_op"]
            / reference["host"]["host_raw_ms_per_op"] - 1.0)
    values["harness.pass_spread_ratio"] = \
        summary.get("harness", {}).get("pass_spread_ratio", 0.0)
    units = {m["name"]: m["unit"] for m in PER_LAYER}
    summary["per_layer"] = {k: {"value": v, "unit": units.get(k, "ratio")}
                            for k, v in values.items()}
    summary["spans_file"] = t1.get("spans_file")
    summary["unreconciled_requests"] = layer.get("unreconciled_requests")
    return layer["problems"]


def _cmd_run(args: argparse.Namespace) -> int:
    from benchmarks.e2e.drivers import run_drivers
    names = args.workload or workload_names()
    scale = runner.QUICK_SCALE if args.quick else 1.0
    n_passes = 1 if args.quick else args.passes
    seed = args.seed
    sha = _git_sha()
    out_path = Path(args.out) if args.out else \
        runner.RESULTS_DIR / f"{sha}-{seed}{'-quick' if args.quick else ''}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    problems: List[str] = []

    # Untraced passes, round-robin across the workloads so that slow
    # drift of the host lands on every workload alike.
    records: Dict[str, List[Dict[str, Any]]] = {n: [] for n in names}
    for name in names:
        runner.run_child(name, seed, scale=scale, setup_only=True)
    for index in range(n_passes):
        for name in names:
            print(f"[untraced {index + 1}/{n_passes}] {name}", flush=True)
            records[name].append(runner.run_child(name, seed, scale=scale))

    workloads: Dict[str, Any] = {}
    for name in names:
        setups = [r["host"]["setup_s"] for r in records[name]
                  if "host" in r]
        if not args.quick:
            setups = runner.setup_samples(name, seed, scale, setups)
        summary = runner.summarize(records[name], setups)
        problems += summary.pop("problems")

        problems += _traced_into(summary, name, seed, scale, out_path)
        workloads[name] = summary

    print("[L] layer drivers", flush=True)
    loop_s = LOOP_S_CONTRACT if args.quick else LOOP_S_FULL
    units = {m["name"]: m["unit"] for m in PER_LAYER}
    drivers = {k: {"value": v, "unit": units[k]}
               for k, v in run_drivers(loop_s).items()}
    fig7 = runner.fig7_check()
    problems += fig7["problems"]

    result = {
        "schema": 1, "git_sha": sha, "seed": seed,
        "quick": bool(args.quick),
        "comparable": not args.quick,
        "passes": n_passes,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": workloads,
        "layer_drivers": drivers,
        "scenarios": {"fig7_upload_err_ratio": fig7["err_ratio"],
                      "fig7_upload_s": fig7["upload_s"],
                      "fig7_matches_golden": fig7["matches_golden"]},
        "problems": problems,
    }
    out_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    _print_table(result)
    print(f"\nwrote {out_path}")
    if args.quick:
        print("--quick: one short pass, no percentile above p50; "
              "NOT comparable with a full run")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _print_table(result: Dict[str, Any]) -> None:
    """Every metric by name and unit, one block per workload."""
    for name, w in result["workloads"].items():
        print(f"\n== {name}: {w['attempted']} ops attempted, "
              f"{w['failed']} failed, {w['passes']} passes ==")
        for metric, m in w["end_to_end"].items():
            spread = ""
            if "q1" in m:
                spread = f"  [q1 {m['q1']:.4g}, q3 {m['q3']:.4g}, " \
                         f"n={m['n']}]"
            print(f"  {metric:34s} {m['value']:14.6g} {m['unit']}{spread}")
        for group in ("class_latency", "per_layer"):
            for metric, m in w.get(group, {}).items():
                print(f"  {metric:34s} {m['value']:14.6g} {m['unit']}")
    print("\n== layer drivers ==")
    for metric, m in result["layer_drivers"].items():
        print(f"  {metric:34s} {m['value']:14.6g} {m['unit']}")
    s = result["scenarios"]
    print(f"\n  scenarios.fig7_upload_err_ratio    "
          f"{s['fig7_upload_err_ratio']:14.6g} ratio "
          f"({s['fig7_upload_s']:.1f} s vs ~60 s in the paper)")


# -- compare ----------------------------------------------------------------------

def _cmd_compare(args: argparse.Namespace) -> int:
    report = compare_files(Path(args.parent), Path(args.change),
                           runner.ROOT / "BENCHMARK.json")
    print(report.render())
    return 1 if report.regressed else 0


def main(argv: Optional[List[str]] = None,
         t_start: Optional[float] = None) -> int:
    t_start = time.perf_counter() if t_start is None else t_start
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pass", help="one pass; prints its JSON record")
    p.add_argument("--workload", required=True, choices=workload_names())
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=MODES, default="plain")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="write T1 spans to this JSON file")

    p = sub.add_parser("run", help="untraced passes + T1 + T2 + L")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--passes", type=int, default=5,
                   help="untraced passes per workload (R >= 5)")
    p.add_argument("--workload", action="append",
                   choices=workload_names(),
                   help="limit to these workloads (repeatable)")
    p.add_argument("--quick", action="store_true",
                   help="smoke run: one pass, ops / 10; not comparable")
    p.add_argument("--out", help="result file (default results/<sha>-"
                                 "<seed>.json)")

    p = sub.add_parser("compare", help="parent.json change.json")
    p.add_argument("parent")
    p.add_argument("change")

    args = parser.parse_args(argv)
    if args.command == "pass":
        return _cmd_pass(args, t_start)
    if args.command == "run":
        try:
            return _cmd_run(args)
        except runner.BenchmarkError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 1
    return _cmd_compare(args)
