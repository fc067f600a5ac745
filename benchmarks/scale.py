"""Steady-state sweep: does anything grow with the operations done?

``python benchmarks/scale.py [--seed N]`` runs one untraced benchmark
pass of ``production_mixed`` at 1x, 2x and 4x its length, each in a
child process, and prints per length ``host_peak_rss_mb``,
``host_ms_per_op``, how often the database compacted its log
(``db.stats["compactions"]``) and the unique bytes the log holds at the
end.  The gate is slope, not level (ROADMAP item 5a): RSS growth per 1x
of run length and ms/op at 4x against 1x.

``--smoke`` is the CI form: 0.25x and 0.5x, and it fails unless
``production_mixed`` compacted at least once, ``faithful_bulk`` (fresh
uploads, nothing superseded) never did, and no operation failed.

A child is ``python -m benchmarks.e2e pass`` in all but one thing: the
pass record does not carry the two log figures, so the child calls the
same ``run_pass`` with ``_deploy`` wrapped to remember the stack it
built, and reads them off ``stack.dbmanager.db`` when the pass is over.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parents[1]
SCALES = (1.0, 2.0, 4.0)
SMOKE_SCALES = (0.25, 0.5)
PASS_TIMEOUT_S = 600


def _child(workload: str, scale: float, seed: int) -> Dict[str, Any]:
    """One pass in this process; its record plus the log's figures."""
    from benchmarks.e2e import passes
    built: List[Any] = []
    deploy = passes._deploy

    def remembering(sim, schedule):
        tb, stack = deploy(sim, schedule)
        built.append(stack)
        return tb, stack

    passes._deploy = remembering
    record = passes.run_pass(workload, seed, scale=scale)
    db = built[0].dbmanager.db
    record["log"] = {
        "compactions": db.stats.get("compactions", 0),
        "bytes": db.wal.size(),
        "unique_bytes": sum(len(s) for s in
                            {id(s): s for s in db.wal._segments}.values()),
    }
    return record


def run_child(workload: str, scale: float, seed: int) -> Dict[str, Any]:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", workload,
         "--scale", repr(scale), "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"{workload} at {scale}x exited with code "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def sweep(workload: str, scales, seed: int) -> List[Dict[str, Any]]:
    print(f"{workload} (seed {seed})")
    print(f"  {'scale':>5} {'ops':>6} {'failed':>6} {'rss MB':>8} "
          f"{'ms/op':>7} {'compactions':>11} {'log MB':>8} {'unique MB':>9}")
    records = []
    for scale in scales:
        r = run_child(workload, scale, seed)
        host, log = r["host"], r["log"]
        print(f"  {scale:5g} {r['attempted']:6d} {r['failed']:6d} "
              f"{host['host_peak_rss_mb']:8.1f} {host['host_ms_per_op']:7.3f} "
              f"{log['compactions']:11d} {log['bytes'] / 2**20:8.1f} "
              f"{log['unique_bytes'] / 2**20:9.1f}", flush=True)
        records.append(r)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/scale.py")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short sweep with assertions (CI)")
    parser.add_argument("--child", metavar="WORKLOAD",
                        help="run one pass here and print its record")
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_child(args.child, args.scale, args.seed)))
        return 0
    if not args.smoke:
        mixed = sweep("production_mixed", SCALES, args.seed)
        rss = [r["host"]["host_peak_rss_mb"] for r in mixed]
        ms = [r["host"]["host_ms_per_op"] for r in mixed]
        print(f"  RSS growth 1x -> 2x: {rss[1] - rss[0]:+.1f} MB; "
              f"ms/op at 4x / at 1x: {ms[2] / ms[0]:.3f}")
        return 0
    mixed = sweep("production_mixed", SMOKE_SCALES, args.seed)
    bulk = sweep("faithful_bulk", SMOKE_SCALES, args.seed)
    problems = [f"{r['workload']} at {r['scale']}x: {r['failed']} failed"
                for r in mixed + bulk if r["failed"]]
    if not any(r["log"]["compactions"] for r in mixed):
        problems.append("production_mixed never compacted its log")
    if any(r["log"]["compactions"] for r in bulk):
        problems.append("faithful_bulk compacted a log with nothing dead")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
