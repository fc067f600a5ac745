"""Paired host timing of two checkouts on one workload.

``python benchmarks/pairs.py --parent DIR --change DIR --workload W``
runs ``--pairs`` N pairs of ``python -m benchmarks.e2e pass`` children,
one from each checkout per pair, alternating which goes first so that
slow drift of the machine lands on both sides alike.  It prints each
run's ``host_ms_per_op``, then for it, ``host_peak_rss_mb`` and
``setup_s`` per side the median and quartiles, how many pairs the change
won (lower is better for all three), and whether the change's median is
lower by more than the parent's quartile spread.

The simulated clock is deterministic, so every run of both sides must
report the same simulated metrics, bit for bit, and no failed operation:
the script exits 1 if any run differs from the parent's first, and 0
otherwise, whatever the timing says.  ``--parent . --change .`` times a
checkout against itself (a smoke run of the tool).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

__all__ = ["run_pass", "sim_problems", "summarise", "main"]

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
#: The host figures of a pass record that are summarised, lower better.
HOST = ("host_ms_per_op", "host_peak_rss_mb", "setup_s")


def run_pass(checkout: Path, workload: str, seed: int,
             scale: float) -> Dict[str, Any]:
    """One untraced pass of *checkout*, as the benchmark runs it; its
    record is the child's last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout / "src"), str(checkout)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "pass", "--workload",
         workload, "--seed", str(seed), "--scale", repr(scale)],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True,
        check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _simulated(record: Dict[str, Any]) -> Dict[str, Any]:
    return {"schedule_digest": record.get("schedule_digest"),
            "attempted": record.get("attempted"),
            "failed": record.get("failed"),
            "sim": record.get("sim", {}).get("values")}


def sim_problems(runs: Dict[str, List[Dict[str, Any]]]) -> List[str]:
    """Every run whose simulated figures are not the parent's first run's,
    and every run with a failed operation."""
    reference = _simulated(runs["parent"][0])
    problems = []
    for side in SIDES:
        for index, record in enumerate(runs[side]):
            got = _simulated(record)
            if got["failed"]:
                problems.append(f"{side} run {index + 1}: "
                                f"{got['failed']} failed operations")
            for key in reference:
                if got[key] != reference[key]:
                    problems.append(f"{side} run {index + 1}: {key} "
                                    f"{got[key]!r} != {reference[key]!r}")
    return problems


def summarise(parent: Sequence[float], change: Sequence[float]
              ) -> Dict[str, Any]:
    """Per side median and quartiles of a lower-is-better figure, the
    pairs the change won, and whether the change's median is lower than
    the parent's by more than the parent's quartile spread."""
    from benchmarks.e2e.stats import quartiles
    p, c = quartiles(parent), quartiles(change)
    gap = p["median"] - c["median"]
    return {
        "parent": p, "change": c,
        "wins": sum(1 for a, b in zip(parent, change) if b < a),
        "pairs": len(parent),
        "delta_ratio": -gap / p["median"] if p["median"] else 0.0,
        "beyond_parent_spread": gap > p["q3"] - p["q1"],
    }


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/pairs.py")
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout timed as the baseline")
    parser.add_argument("--change", required=True, type=Path,
                        help="checkout timed against it")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    runs: Dict[str, List[Dict[str, Any]]] = {side: [] for side in SIDES}
    for index in range(args.pairs):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_pass(checkouts[side], args.workload,
                                       args.seed, args.scale))
        figures = "  ".join(
            f"{side} {runs[side][-1]['host']['host_ms_per_op']:.4f}"
            for side in order)
        print(f"pair {index + 1:2d}/{args.pairs}  {figures}", flush=True)

    print(f"\n{args.workload} seed {args.seed} scale {args.scale}, "
          f"{args.pairs} alternating pairs")
    for metric in HOST:
        summary = summarise(*([r["host"][metric] for r in runs[side]]
                              for side in SIDES))
        print(f"  {metric}")
        for side in SIDES:
            q = summary[side]
            print(f"    {side:6s} median {q['median']:.4f}  "
                  f"q1 {q['q1']:.4f}  q3 {q['q3']:.4f}")
        print(f"    change lower in {summary['wins']} of {summary['pairs']} "
              f"pairs; median {summary['delta_ratio']:+.1%}, "
              f"{'more' if summary['beyond_parent_spread'] else 'not more'} "
              f"than the parent's quartile spread lower")
    problems = sim_problems(runs)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if not problems:
        print("  every simulated metric identical in every run")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
