"""``compare A.json B.json``: one verdict per (workload, metric).

A is the parent, B the change.  Direction and bound of each end-to-end
metric come from ``BENCHMARK.json``.  Verdicts:

``better`` / ``worse``  the median moved past the bound;
``same``                it did not;
``unresolved``          a host-clock metric whose run-to-run spread
                        (quartile distance over median, either side) is
                        wider than the bound — unless every run of one
                        side beats every run of the other, which decides
                        it regardless of spread.

Simulated-clock metrics are exact at a fixed seed, so when both files
carry the same seed they are held to ``SIM_EXACT_BOUND`` instead of the
(seed-spread-sized) contract bound; so are the per-class latencies,
which have no contract bound and are reported ``unresolved`` across
different seeds.  ``failed_ratio`` may not rise at all.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.e2e.metrics import CLASS_LATENCY, SIM_EXACT_BOUND, by_name

__all__ = ["Row", "Report", "verdict", "compare_results", "compare_files"]

#: Absolute slack under which a host metric cannot count as worse
#: (the issue's max(10 %, 8 MB) and max(10 %, 0.05 s)).
ABS_FLOOR = {"host_peak_rss_mb": 8.0, "setup_s": 0.05}


class Row:
    def __init__(self, workload: str, metric: str, parent: float,
                 change: float, bound: Optional[float], verdict_: str):
        self.workload, self.metric = workload, metric
        self.parent, self.change = parent, change
        self.bound, self.verdict = bound, verdict_

    @property
    def delta(self) -> float:
        return (self.change - self.parent) / self.parent \
            if self.parent else 0.0


class Report:
    def __init__(self, rows: List[Row], notes: List[str]):
        self.rows, self.notes = rows, notes

    @property
    def regressed(self) -> bool:
        return any(r.verdict == "worse" for r in self.rows)

    def render(self) -> str:
        lines = [f"{'workload':18s} {'metric':30s} {'parent':>12s} "
                 f"{'change':>12s} {'delta':>8s} {'bound':>6s}  verdict"]
        for r in self.rows:
            bound = f"{100 * r.bound:.0f}%" if r.bound is not None else "-"
            lines.append(
                f"{r.workload:18s} {r.metric:30s} {r.parent:12.5g} "
                f"{r.change:12.5g} {100 * r.delta:+7.2f}% {bound:>6s}  "
                f"{r.verdict}")
        lines += self.notes
        counts = {v: sum(1 for r in self.rows if r.verdict == v)
                  for v in ("better", "same", "worse", "unresolved")}
        lines.append(", ".join(f"{n} {v}" for v, n in counts.items()))
        return "\n".join(lines)


def _spread(entry: Dict[str, Any]) -> float:
    if "q1" not in entry or not entry["value"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / entry["value"]


def verdict(parent: Dict[str, Any], change: Dict[str, Any], better: str,
            bound: float, abs_floor: float = 0.0) -> str:
    """Verdict for one metric from its two result entries.

    An entry is ``{"value": median, "q1": .., "q3": .., "values": [..]}``
    (the spread keys are absent for exact metrics).
    """
    a, b = parent["value"], change["value"]
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b - a)            # > 0: the change is worse
    rel = worse_by / abs(a) if a else math.copysign(math.inf, worse_by) \
        if worse_by else 0.0
    if rel > bound and abs(worse_by) > abs_floor:
        moved = "worse"
    elif rel < -bound and abs(worse_by) > abs_floor:
        moved = "better"
    else:
        moved = "same"
    if max(_spread(parent), _spread(change)) <= bound:
        return moved
    # Spread wider than the bound: only a clean separation decides.
    runs_a: Sequence[float] = parent.get("values") or [a]
    runs_b: Sequence[float] = change.get("values") or [b]
    if all(sign * (y - x) < 0 for x in runs_a for y in runs_b):
        return "better"
    if moved == "worse" and all(sign * (y - x) > 0
                                for x in runs_a for y in runs_b):
        return "worse"
    return "unresolved"


def compare_results(parent: Dict[str, Any], change: Dict[str, Any],
                    manifest: Dict[str, Any]) -> Report:
    for side, result in (("parent", parent), ("change", change)):
        if not result.get("comparable", True):
            raise ValueError(f"the {side} result is a --quick run and is "
                             "not comparable")
    same_seed = parent.get("seed") == change.get("seed")
    catalogue = by_name()
    rows: List[Row] = []
    notes: List[str] = []
    if not same_seed:
        notes.append("note: different seeds - simulated metrics held to "
                     "the contract bounds, per-class latencies "
                     "unresolved")
    for name in parent["workloads"]:
        if name not in change["workloads"]:
            notes.append(f"note: {name} missing from the change")
            continue
        wa, wb = parent["workloads"][name], change["workloads"][name]
        for spec in manifest["end_to_end"]:
            metric = spec["name"]
            ea, eb = wa["end_to_end"].get(metric), \
                wb["end_to_end"].get(metric)
            if ea is None or eb is None:
                notes.append(f"note: {name}/{metric} missing on one side")
                continue
            bound = spec["bound"]
            clock = catalogue.get(metric, {}).get("clock")
            if clock == "sim" and same_seed:
                bound = min(bound, SIM_EXACT_BOUND)
            rows.append(Row(name, metric, ea["value"], eb["value"], bound,
                            verdict(ea, eb, spec["better"], bound,
                                    ABS_FLOOR.get(metric, 0.0))))
        for spec in CLASS_LATENCY:
            metric = spec["name"]
            ea = wa.get("class_latency", {}).get(metric)
            eb = wb.get("class_latency", {}).get(metric)
            if not ea or not eb or not (ea["value"] or eb["value"]):
                continue  # class absent from this workload
            rows.append(Row(
                name, metric, ea["value"], eb["value"],
                SIM_EXACT_BOUND if same_seed else None,
                verdict(ea, eb, spec["better"], SIM_EXACT_BOUND)
                if same_seed else "unresolved"))
        fa, fb = wa["failed_ratio"], wb["failed_ratio"]
        rows.append(Row(name, "failed_ratio", fa, fb, 0.0,
                        "worse" if fb > fa else
                        "better" if fb < fa else "same"))
    return Report(rows, notes)


def compare_files(parent: Path, change: Path, manifest: Path) -> Report:
    return compare_results(json.loads(parent.read_text()),
                           json.loads(change.read_text()),
                           json.loads(manifest.read_text()))
