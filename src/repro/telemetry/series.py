"""Time-series container with the analysis helpers the experiments need."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, List, Optional, Tuple

__all__ = ["TimeSeries"]


class TimeSeries:
    """An append-only series of (time, value) samples.

    Samples must be appended in non-decreasing time order; analysis
    helpers cover what the scenario assertions and benchmark reports
    need (peaks, plateaus, basic stats).
    """

    def __init__(self, name: str = "", unit: str = ""):
        self.name = name
        self.unit = unit
        self._times: List[float] = []
        self._values: List[float] = []

    # -- building -------------------------------------------------------------

    def append(self, t: float, value: float) -> None:
        """Record *value* at time *t* (must not precede the last sample)."""
        if self._times and t < self._times[-1]:
            raise ValueError(
                f"{self.name}: sample at t={t} precedes last t={self._times[-1]}"
            )
        self._times.append(float(t))
        self._values.append(float(value))

    # -- access -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(zip(self._times, self._values))

    @property
    def times(self) -> List[float]:
        return list(self._times)

    @property
    def values(self) -> List[float]:
        return list(self._values)

    def value_at(self, t: float) -> float:
        """Value of the latest sample at or before *t* (0 if none).

        Times are non-decreasing by construction, so this is a binary
        search — O(log n) where gauge-heavy runs used to pay O(n) per
        lookup inside the critical-path analyzer.
        """
        idx = bisect_right(self._times, t)
        if idx == 0:
            return 0.0
        return self._values[idx - 1]

    def slice(self, t0: float, t1: float) -> "TimeSeries":
        """Samples with t0 <= t <= t1, as a new series (binary search)."""
        out = TimeSeries(self.name, self.unit)
        lo = bisect_left(self._times, t0)
        hi = bisect_right(self._times, t1)
        out._times = self._times[lo:hi]
        out._values = self._values[lo:hi]
        return out

    # -- stats ------------------------------------------------------------------

    def max(self) -> float:
        return max(self._values) if self._values else 0.0

    def mean(self) -> float:
        return sum(self._values) / len(self._values) if self._values else 0.0

    # -- shape analysis -----------------------------------------------------------

    def peaks(self, threshold: float) -> List[Tuple[float, float]]:
        """Maximal intervals where value >= threshold, as (t_start, t_end).

        This is how scenario tests assert figure shapes ("two disk-write
        peaks", "a network plateau from t≈5 to t≈65").
        """
        intervals: List[Tuple[float, float]] = []
        start: Optional[float] = None
        last_t = 0.0
        for t, v in self:
            if v >= threshold and start is None:
                start = t
            elif v < threshold and start is not None:
                intervals.append((start, t))
                start = None
            last_t = t
        if start is not None:
            intervals.append((start, last_t))
        return intervals

    def peak_count(self, threshold: float, min_gap: float = 0.0) -> int:
        """Number of distinct peaks above *threshold*.

        Peaks separated by less than *min_gap* seconds are merged —
        useful when a single logical burst spans two sample intervals.
        """
        merged = self.merged_peaks(threshold, min_gap)
        return len(merged)

    def merged_peaks(self, threshold: float,
                     min_gap: float = 0.0) -> List[Tuple[float, float]]:
        """Like :meth:`peaks` but merging peaks closer than *min_gap*."""
        raw = self.peaks(threshold)
        if not raw:
            return []
        merged = [raw[0]]
        for start, end in raw[1:]:
            if start - merged[-1][1] < min_gap:
                merged[-1] = (merged[-1][0], end)
            else:
                merged.append((start, end))
        return merged

    def plateau(self, lo: float, hi: float,
                min_duration: float = 0.0) -> List[Tuple[float, float]]:
        """Maximal intervals where lo <= value <= hi lasting >= min_duration."""
        intervals: List[Tuple[float, float]] = []
        start: Optional[float] = None
        last_t = 0.0
        for t, v in self:
            inside = lo <= v <= hi
            if inside and start is None:
                start = t
            elif not inside and start is not None:
                intervals.append((start, t))
                start = None
            last_t = t
        if start is not None:
            intervals.append((start, last_t))
        return [(a, b) for a, b in intervals if (b - a) >= min_duration]

    def nonzero_fraction(self, eps: float = 1e-12) -> float:
        """Fraction of samples with |value| > eps."""
        if not self._values:
            return 0.0
        return sum(1 for v in self._values if abs(v) > eps) / len(self._values)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (f"<TimeSeries {self.name!r} n={len(self)} "
                f"max={self.max():.3g}{self.unit}>")
