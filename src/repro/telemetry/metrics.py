"""Per-service / per-operation request metrics.

Where :mod:`repro.telemetry.sampler` watches *hosts* (the paper's
3-second resource graphs), this module watches *requests*: the metrics
interceptor in :mod:`repro.ws.pipeline` feeds one
:class:`OperationMetrics` per ``(service, operation)`` pair with the
latency and outcome of every call that crosses a SOAP boundary, so any
experiment can ask "what did ``CyberaideAgent.submitJob`` cost, and how
often did it fault?" without touching the request path.

Purely observational: recording a sample allocates no simulation events
and consumes no simulated time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["LatencyHistogram", "OperationMetrics", "MetricsRegistry"]

#: Histogram bucket upper bounds, in simulated seconds.  The last bucket
#: is open-ended.  Chosen to resolve both sub-second SOAP dispatches and
#: multi-minute grid executions.
DEFAULT_BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 600.0)


class LatencyHistogram:
    """A fixed-bucket latency histogram plus running summary stats."""

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_BUCKETS):
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, latency: float) -> None:
        self.count += 1
        self.total += latency
        self.min = min(self.min, latency)
        self.max = max(self.max, latency)
        for i, bound in enumerate(self.bounds):
            if latency <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket counts (upper bound).

        q=0 returns the observed minimum and q=1 the observed maximum;
        in between, the answer is the upper bound of the bucket holding
        the target rank, clamped into [min, max] so an all-in-one-bucket
        histogram never reports a latency outside what was observed.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q!r} outside [0, 1]")
        if self.count == 0:
            return 0.0
        if q <= 0.0:
            return self.min
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= target:
                bound = self.bounds[i] if i < len(self.bounds) else self.max
                return min(max(bound, self.min), self.max)
        return self.max

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "buckets": dict(zip([f"le_{b:g}" for b in self.bounds]
                                + ["le_inf"], self.counts)),
        }


class OperationMetrics:
    """Everything recorded about one ``(service, operation)`` pair."""

    __slots__ = ("service", "operation", "latency", "calls", "faults",
                 "fault_codes")

    def __init__(self, service: str, operation: str):
        self.service = service
        self.operation = operation
        self.latency = LatencyHistogram()
        self.calls = 0
        self.faults = 0
        #: fault detail/class name -> count.
        self.fault_codes: Dict[str, int] = {}

    def record(self, latency: float, fault: Optional[str] = None) -> None:
        self.calls += 1
        self.latency.observe(latency)
        if fault is not None:
            self.faults += 1
            self.fault_codes[fault] = self.fault_codes.get(fault, 0) + 1

    @property
    def fault_rate(self) -> float:
        return self.faults / self.calls if self.calls else 0.0

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (f"<OperationMetrics {self.service}.{self.operation} "
                f"calls={self.calls} faults={self.faults}>")


class MetricsRegistry:
    """All operation metrics of one container (server or client) side."""

    def __init__(self, name: str = "metrics"):
        self.name = name
        self._ops: Dict[Tuple[str, str], OperationMetrics] = {}

    def operation(self, service: str, operation: str) -> OperationMetrics:
        """The (created-on-first-use) metrics cell for one operation."""
        key = (service, operation)
        cell = self._ops.get(key)
        if cell is None:
            cell = self._ops[key] = OperationMetrics(service, operation)
        return cell

    def record(self, service: str, operation: str, latency: float,
               fault: Optional[str] = None) -> None:
        self.operation(service, operation).record(latency, fault)

    def get(self, service: str, operation: str) -> Optional[OperationMetrics]:
        """The metrics cell, or ``None`` if nothing was recorded."""
        return self._ops.get((service, operation))

    def all(self) -> List[OperationMetrics]:
        """Every cell, ordered by (service, operation)."""
        return [self._ops[k] for k in sorted(self._ops)]

    def total_calls(self) -> int:
        return sum(m.calls for m in self._ops.values())

    def table(self) -> str:
        """An aligned text table of every operation's headline numbers."""
        rows = [("service.operation", "calls", "faults", "mean_s", "max_s")]
        for m in self.all():
            rows.append((f"{m.service}.{m.operation}", str(m.calls),
                         str(m.faults), f"{m.latency.mean:.3f}",
                         f"{m.latency.max:.3f}"))
        widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
        return "\n".join(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in rows)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (f"<MetricsRegistry {self.name!r} ops={len(self._ops)} "
                f"calls={self.total_calls()}>")
