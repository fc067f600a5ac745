"""Order statistics used by every pass: nearest-rank percentiles, the
"ten samples beyond" rule for the tail percentile, quartiles and spread."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence, Tuple

__all__ = ["nearest_rank", "top_percentile", "tail", "quartiles",
           "minmax_share"]

#: Percentiles a tail may be reported at, highest first.
TAIL_CANDIDATES = (99, 95, 90, 75)


def nearest_rank(samples: Sequence[float], p: float) -> float:
    """The *p*-th percentile (0 < p <= 100) by the nearest-rank rule:
    the smallest sample with at least p % of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(p * len(ordered) / 100)) - 1]


def top_percentile(n: int, beyond: int = 10) -> int:
    """Highest candidate percentile with >= *beyond* samples above its
    nearest rank (p99 needs n >= 1000, p90 needs n >= 100); 50 if none."""
    for p in TAIL_CANDIDATES:
        if n - math.ceil(p * n / 100) >= beyond:
            return p
    return 50


def tail(samples: Sequence[float], cap: int = 99) -> Tuple[int, float]:
    """(percentile, value) of the highest supported percentile <= *cap*."""
    p = min(top_percentile(len(samples)), cap)
    return p, nearest_rank(samples, p)


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them
    (a single value is its own quartiles)."""
    if len(values) < 2:
        v = float(values[0])
        return {"q1": v, "median": v, "q3": v}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3}


def minmax_share(values: Sequence[float]) -> float:
    """(max - min) / median over a set of passes."""
    med = statistics.median(values)
    return (max(values) - min(values)) / med if med else 0.0
