"""Steady-state sweep: does anything grow with the operations done?

``python benchmarks/scale.py [--seed N]`` runs one untraced benchmark
pass of ``production_mixed``, ``production_hot`` and ``faithful_hot`` at
1x, 2x and 4x its length, each in a child process, and prints per length
``host_peak_rss_mb``, ``host_ms_per_op``, how often the database
compacted its log (``db.stats["compactions"]``) and the unique bytes the
log holds at the end.  The gate is slope, not level (ROADMAP item 5a):
per workload, RSS growth per 1x of run length and ms/op at 4x against 1x.
Beside each it prints the cyclic garbage per op: the objects the cyclic
collector freed over the timed window (``gc.callbacks``' ``collected``)
plus what one collect finds at its end, over the operations attempted.
A finished request is freed by reference counting (DESIGN.md §5), so
this reads 0 where every request ends cleanly.  Under each 1x pass it
prints the raw host ms per op by tenth of the window's ops, stamped by
a bus subscriber on each client-side ``execute`` crossing and each
service (re)generation; ROADMAP item 9's gate is the last tenth at
most 1.1x the first.  Beside it, a row for the hot invokes on their own
(the catalogue's services, stamped the same way): the all-op row's last
tenth is the drain, where only uploads and cold invokes are left, so
its ratio reads the mix; the hot row ends at the last hot invoke.
Neither row is gated.

Under each length it prints what the pass left held at its end: rows
per table on the primary (the one database), gauge samples, the
kernel's queued events, GRAM job records (and how many still hold a
parsed RSL), queued timers still hooked to a condition that has fired,
and staged copies of an executable that are not the memo's payload.
Beside them, ungated, the duplicate submits: ``gram.submit`` events
beyond one per request id over the whole pass (a request run twice on
the grid, ROADMAP observation i).

``--smoke`` is the CI form: 0.25x and 0.5x, and it fails unless
``production_mixed`` compacted at least once, ``faithful_bulk`` (fresh
uploads, nothing superseded) never did, ``production_hot``'s peak RSS
grew by at most ``HOT_RSS_GROWTH_MB`` and ``faithful_bulk``'s by at most
``BULK_RSS_GROWTH_MB`` from 0.25x to 0.5x, ``production_hot`` left no
more queued events at 0.5x than at 0.25x (a timer that outlives its
wait shows here first), both production workloads left at most
``HOT_CYCLIC_PER_OP`` cyclic garbage per op at either length, and no
operation failed.

A child is ``python -m benchmarks.e2e pass`` in all but one thing: the
pass record does not carry the log figures or what is held, so the
child calls the same ``run_pass`` with ``_deploy`` wrapped to remember
what it built, and reads them off the stack when the pass is over.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parents[1]
SCALES = (1.0, 2.0, 4.0)
SMOKE_SCALES = (0.25, 0.5)
PASS_TIMEOUT_S = 600
#: production_hot's peak RSS growth allowed from 0.25x to 0.5x, in MB:
#: +2.7 with a 4 096-event bus ring and every finished invocation's
#: leftovers, +1.7 once those are bounded at their source.
HOT_RSS_GROWTH_MB = 2.0
#: faithful_bulk's peak RSS growth allowed from 0.25x to 0.5x, in MB:
#: +74.0 while each fresh upload left three copies of its bytes (the
#: harness's, the compressed row, an inflated copy), +48.4 once the
#: stored version's payload is the uploaded object, +28.7 once the row
#: keeps that object and no zlib output.
BULK_RSS_GROWTH_MB = 35.0
#: Cyclic garbage allowed per op on the production workloads: 41.6 at
#: 1x on production_hot while every trace span and its parent, and every
#: timeout and its queue entry, held each other; 0 once neither does
#: (production_mixed: 0 once an interrupted wait unhooks its condition).
HOT_CYCLIC_PER_OP = 0.5
#: Parts of a 1x window's ops the host ms per op is printed by.
DECILES = 10
#: The bus kinds that stamp an op: an invoke's client-side ``execute``
#: crossing, a publish's service (re)generation.
OP_KINDS = ("ws.request", "core.service_generated",
            "core.service_republished")


def _held(sim, tb, stack) -> Dict[str, Any]:
    """What the pass left held: the figures that must not grow with the
    operations done, beside the durable rows that may."""
    from repro.simkernel.events import ConditionEvent, Timeout
    from repro.telemetry.gauges import gauges
    manager = stack.dbmanager
    rows = {t: manager.db.count(t) for t in manager.db.tables}
    jobs = [job for site in tb.sites for job in site._jobs.values()]
    fired_hooks = sum(
        1 for _, _, ev in sim._heap if isinstance(ev, Timeout)
        for cb in ev.callbacks or ()
        if isinstance(getattr(cb, "__self__", None), ConditionEvent)
        and cb.__self__.triggered)
    memo = {id(exe.payload): exe.payload
            for exe in manager._memo._entries.values()}
    copies = sum(1 for site in tb.sites for data in site.storage.values()
                 for payload in memo.values()
                 if data is not payload and data == payload)
    return {"rows": rows,
            "gauge_samples": sum(len(s) for s in gauges(sim).series()),
            "queued_events": sim.queued_events,
            "fired_condition_hooks": fired_hooks,
            "gram_jobs": len(jobs),
            "gram_jobs_with_rsl": sum(job.description is not None
                                      for job in jobs),
            "payload_copies": copies}


class _WindowGc:
    """Stands in for ``gc`` in the pass module: the ``collect()`` the
    pass makes just before its timed window also restarts the count of
    objects the cyclic collector frees."""

    def __init__(self) -> None:
        self.collected = 0
        self.window_t0 = time.process_time()
        gc.callbacks.append(self._on_collect)

    def _on_collect(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "stop":
            self.collected += info["collected"]

    def collect(self) -> int:
        found = gc.collect()
        self.collected = 0
        self.window_t0 = time.process_time()
        return found


def _deciles(t0: float, stamps: List[float]) -> List[float]:
    """Host ms per stamp in each tenth of the *stamps* from *t0* on (by
    count), the first tenth timed from *t0*."""
    stamps = [t for t in stamps if t >= t0]
    n = len(stamps)
    if n < DECILES:
        return []
    out, start, done = [], t0, 0
    for k in range(1, DECILES + 1):
        end = n * k // DECILES
        out.append(1000.0 * (stamps[end - 1] - start) / (end - done))
        start, done = stamps[end - 1], end
    return out


def _child(workload: str, scale: float, seed: int) -> Dict[str, Any]:
    """One pass in this process; its record, the log's figures, what
    the pass left held and the cyclic garbage its window made."""
    from benchmarks.e2e import passes
    from repro.core.datastructures import service_name_for
    from repro.telemetry.events import bus
    built: List[Any] = []
    stamps: List[float] = []
    hot_stamps: List[float] = []
    hot: set = set()
    submits: Dict[Any, int] = {}
    deploy = passes._deploy

    def stamp(event) -> None:
        if event.kind != "ws.request":
            stamps.append(time.process_time())
        elif (event.get("side") == "client"
              and event.get("operation") == "execute"):
            now = time.process_time()
            stamps.append(now)
            if event.get("service") in hot:
                hot_stamps.append(now)

    def count_submit(event) -> None:
        submits[event.request_id] = submits.get(event.request_id, 0) + 1

    def remembering(sim, schedule):
        hot.update(service_name_for(svc["file"])
                   for svc in schedule["services"])
        tb, stack = deploy(sim, schedule)
        built.append((sim, tb, stack))
        bus(sim).subscribe(stamp, kinds=OP_KINDS)
        bus(sim).subscribe(count_submit, kinds=("gram.submit",))
        return tb, stack

    passes._deploy = remembering
    window_gc = passes.gc = _WindowGc()
    record = passes.run_pass(workload, seed, scale=scale)
    # The stack is still held (built), so this finds only garbage.
    collected = window_gc.collected + gc.collect()
    record["cyclic_per_op"] = collected / max(1, record["attempted"])
    record["decile_ms"] = _deciles(window_gc.window_t0, stamps)
    record["hot_decile_ms"] = _deciles(window_gc.window_t0, hot_stamps)
    sim, tb, stack = built[0]
    db = stack.dbmanager.db
    record["log"] = {
        "compactions": db.stats.get("compactions", 0),
        "bytes": db.wal.size(),
        "unique_bytes": sum(len(s) for s in
                            {id(s): s for s in db.wal._segments}.values()),
    }
    record["held"] = _held(sim, tb, stack)
    record["duplicate_submits"] = sum(n - 1 for n in submits.values())
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
          f"{'ms/op':>7} {'compactions':>11} {'log MB':>8} {'unique MB':>9} "
          f"{'cyclic/op':>9}")
    records = []
    for scale in scales:
        r = run_child(workload, scale, seed)
        host, log = r["host"], r["log"]
        print(f"  {scale:5g} {r['attempted']:6d} {r['failed']:6d} "
              f"{host['host_peak_rss_mb']:8.1f} {host['host_ms_per_op']:7.3f} "
              f"{log['compactions']:11d} {log['bytes'] / 2**20:8.1f} "
              f"{log['unique_bytes'] / 2**20:9.1f} "
              f"{r['cyclic_per_op']:9.2f}", flush=True)
        held = r["held"]
        print("        rows on primary: " + (", ".join(
            f"{t} {n}" for t, n in held["rows"].items()) or "none"))
        print(f"        held: {held['gauge_samples']} gauge samples, "
              f"{held['queued_events']} queued events "
              f"({held['fired_condition_hooks']} timers hooked to a fired "
              f"condition), {held['gram_jobs']} GRAM job records "
              f"({held['gram_jobs_with_rsl']} with parsed RSL), "
              f"{held['payload_copies']} second copies of a memo payload",
              flush=True)
        print(f"        duplicate submits: {r['duplicate_submits']} "
              f"gram.submit beyond one per request id", flush=True)
        for label, deciles in (("op", r["decile_ms"]),
                               ("hot invoke", r["hot_decile_ms"])):
            if scale == 1.0 and deciles:
                print(f"        host ms per {label} by tenth: "
                      + " ".join(f"{ms:.2f}" for ms in deciles)
                      + f"  (last / first {deciles[-1] / deciles[0]:.3f}, "
                      f"item 9: at most 1.1)", flush=True)
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
        slopes = {name: sweep(name, SCALES, args.seed)
                  for name in ("production_mixed", "production_hot",
                               "faithful_hot")}
        for name, records in slopes.items():
            rss = [r["host"]["host_peak_rss_mb"] for r in records]
            ms = [r["host"]["host_ms_per_op"] for r in records]
            print(f"{name:<16} RSS per 1x (1x -> 2x): "
                  f"{rss[1] - rss[0]:+6.1f} MB; "
                  f"ms/op at 4x / at 1x: {ms[2] / ms[0]:.3f}")
        return 0
    mixed = sweep("production_mixed", SMOKE_SCALES, args.seed)
    bulk = sweep("faithful_bulk", SMOKE_SCALES, args.seed)
    hot = sweep("production_hot", SMOKE_SCALES, args.seed)
    problems = [f"{r['workload']} at {r['scale']}x: {r['failed']} failed"
                for r in mixed + bulk + hot if r["failed"]]
    if not any(r["log"]["compactions"] for r in mixed):
        problems.append("production_mixed never compacted its log")
    if any(r["log"]["compactions"] for r in bulk):
        problems.append("faithful_bulk compacted a log with nothing dead")
    for name, records, ceiling in (
            ("faithful_bulk", bulk, BULK_RSS_GROWTH_MB),
            ("production_hot", hot, HOT_RSS_GROWTH_MB)):
        rss = [r["host"]["host_peak_rss_mb"] for r in records]
        growth = rss[1] - rss[0]
        print(f"{name:<14} peak RSS {rss[0]:.1f} MB at "
              f"{SMOKE_SCALES[0]:g}x, {rss[1]:.1f} MB at "
              f"{SMOKE_SCALES[1]:g}x: {growth:+.1f} MB "
              f"(at most +{ceiling:g})")
        if growth > ceiling:
            problems.append(f"{name} peak RSS grew {growth:+.1f} MB from "
                            f"{SMOKE_SCALES[0]:g}x to {SMOKE_SCALES[1]:g}x")
    queued = [r["held"]["queued_events"] for r in hot]
    print(f"production_hot queued events {queued[0]} at "
          f"{SMOKE_SCALES[0]:g}x, {queued[1]} at {SMOKE_SCALES[1]:g}x "
          f"(must not grow)")
    if queued[1] > queued[0]:
        problems.append(f"production_hot left {queued[1]} queued events at "
                        f"{SMOKE_SCALES[1]:g}x, {queued[0]} at "
                        f"{SMOKE_SCALES[0]:g}x")
    for name, records in (("production_mixed", mixed),
                          ("production_hot", hot)):
        cyclic = [r["cyclic_per_op"] for r in records]
        print(f"{name} cyclic garbage per op {cyclic[0]:.3f} at "
              f"{SMOKE_SCALES[0]:g}x, {cyclic[1]:.3f} at "
              f"{SMOKE_SCALES[1]:g}x (at most {HOT_CYCLIC_PER_OP:g})")
        problems += [f"{name} left {c:.3f} cyclic garbage per op at "
                     f"{scale:g}x" for c, scale in zip(cyclic, SMOKE_SCALES)
                     if c > HOT_CYCLIC_PER_OP]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
