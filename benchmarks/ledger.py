"""The benchmark ledger: seed-0 numbers on disk, one record per change.

``python benchmarks/ledger.py record`` runs, for each of
the four workloads, one untraced pass and one T1 pass at seed 0 and full
length — each a ``python -m benchmarks.e2e pass`` child, as the
benchmark runs them — and adds one record to ``BENCH_e2e.json`` at the
repo root (replacing a record of the same sha).  A record holds the git
sha, seed and scale and, per workload:

* ``sim``: the untraced simulated metrics — the end-to-end ones and the
  per-class latencies;
* ``t1``: the T1 critical-path buckets (seconds per op by layer), the
  unattributed share and the unreconciled requests;
* ``counts``: the exact per-op counts a change must name when it lowers
  one (events, SOAP requests, WAL frames, bus events, replica reads,
  GRAM exchanges, uplink bytes);
* ``ops``: attempted, failed and executed-twice operations;
* ``host``: ``host_ms_per_op``, ``host_peak_rss_mb`` and ``setup_s`` of
  the untraced pass — recorded, never checked: they are this machine's.

The sha is ``git describe --always --dirty``: a record made before its
change is committed carries its parent's sha and ``-dirty``.  So that
the trajectory reads without the change log beside it, ``record --label
"PR 31"`` stores a label naming the change beside the sha, and
``check`` prints it.

``python benchmarks/ledger.py check`` re-runs the same passes and exits 1
when anything but ``host`` differs from the last record, the committed
state of HEAD.  The simulated clock is deterministic, so equality is
bit for bit; a change that moves a number adds a record, declaring it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "BENCH_e2e.json"
SEED = 0
SCALE = 1.0
COUNTS = ("simkernel.events_per_op", "ws.soap_requests_per_op",
          "db.wal_appends_per_op", "telemetry.bus_events_per_op",
          "db.replica_reads_per_op", "grid.gram_exchanges_per_op",
          "hardware.uplink_bytes_per_op")
HOST = ("host_ms_per_op", "host_peak_rss_mb", "setup_s")


def _describe() -> str:
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty",
                               "--abbrev=7"], cwd=ROOT, capture_output=True,
                              text=True, check=True)
        return done.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "nogit"


def _name(record: Dict[str, Any]) -> str:
    """A record's sha, and its label when it has one."""
    label = record.get("label")
    return f"{record['git_sha']} ({label})" if label else record["git_sha"]


def measure() -> Dict[str, Any]:
    """One record's workloads: an untraced and a T1 pass of each."""
    from benchmarks.e2e.passes import T1_BUCKETS
    from benchmarks.e2e.runner import run_child
    from benchmarks.e2e.workloads import workload_names

    buckets = sorted(set(T1_BUCKETS.values())) + [
        "telemetry.sim_unattributed_share"]
    workloads = {}
    for name in workload_names():
        print(f"[ledger] {name}", file=sys.stderr, flush=True)
        plain = run_child(name, SEED, scale=SCALE)
        t1 = run_child(name, SEED, mode="t1", scale=SCALE)
        if t1.get("sim") != plain.get("sim"):
            raise SystemExit(f"{name}: the T1 pass's simulated metrics "
                             "differ from the untraced pass's")
        workloads[name] = {
            "schedule_digest": plain["schedule_digest"],
            "ops": {key: plain[key] for key in
                    ("attempted", "failed", "dedup_duplicates")},
            "sim": plain["sim"]["values"],
            "t1": {**{key: t1["t1"][key] for key in buckets},
                   "unreconciled_requests":
                       t1["t1_check"]["unreconciled_requests"]},
            "counts": {key: t1["t1"][key] for key in COUNTS},
            "host": {key: plain["host"][key] for key in HOST},
        }
    return workloads


def _load() -> Dict[str, Any]:
    if LEDGER.exists():
        return json.loads(LEDGER.read_text())
    return {"schema": 1, "records": []}


def differences(recorded: Dict[str, Any], measured: Dict[str, Any]
                ) -> List[str]:
    """Every checked figure of *measured* that is not *recorded*'s."""
    out = []
    for name in sorted(set(recorded) | set(measured)):
        was, now = recorded.get(name), measured.get(name)
        if was is None or now is None:
            out.append(f"{name}: in only one of record and run")
            continue
        for group in sorted(set(was) | set(now)):
            if group == "host":
                continue
            a, b = was.get(group), now.get(group)
            if not isinstance(a, dict) or not isinstance(b, dict):
                if a != b:
                    out.append(f"{name} {group}: {a!r} -> {b!r}")
                continue
            for key in sorted(set(a) | set(b)):
                if a.get(key) != b.get(key):
                    out.append(f"{name} {group} {key}: "
                               f"{a.get(key)!r} -> {b.get(key)!r}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/ledger.py")
    sub = parser.add_subparsers(dest="command", required=True)
    record_cmd = sub.add_parser("record", help="measure and add a record")
    record_cmd.add_argument("--label", default="",
                            help='what the record is of, e.g. "PR 31"')
    sub.add_parser("check", help="re-measure; fail if HEAD's record "
                                 "no longer holds")
    args = parser.parse_args(argv)
    ledger = _load()
    if args.command == "record":
        sha = _describe()
        record = {"git_sha": sha, "seed": SEED, "scale": SCALE,
                  "workloads": measure()}
        if args.label:
            record["label"] = args.label
        ledger["records"] = [r for r in ledger["records"]
                             if r["git_sha"] != sha] + [record]
        LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True)
                          + "\n")
        print(f"recorded {_name(record)} in {LEDGER.name}")
        return 0
    if not ledger["records"]:
        print(f"check failed: {LEDGER.name} holds no record",
              file=sys.stderr)
        return 1
    head = ledger["records"][-1]
    problems = differences(head["workloads"], measure())
    for problem in problems:
        print(f"check failed against {_name(head)}: {problem}",
              file=sys.stderr)
    if not problems:
        print(f"{LEDGER.name}: the record of {_name(head)} holds")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
