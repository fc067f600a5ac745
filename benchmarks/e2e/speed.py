"""Host speed measured alongside the work, and time normalised by it.

The box the benchmark runs on is a few cores of a shared host, and the
speed of a core moves with what the neighbours do: one pass, bit for bit
the same work, took 10.2 to 16.2 host ms per op back to back, all of it
user time, in spells of half a second to minutes, and every kind of
Python code slowed together (a bare integer loop by 1.5, dict copies by
2).  A median over passes cannot remove a spell that outlasts the run,
so the harness measures the speed itself: a small fixed kernel of
interpreter work (SOAP-sized XML round trips and a scan of a table of
dict rows: the shape of the program's own hot paths) is timed after
every ``MARK_GAP_S`` of work, and each stretch of work is divided by the
speed the kernel found at its two ends.  The result is host time *at the
reference speed*: ``REF_KERNEL_S`` is what the kernel takes, between
stretches of a pass, on an uncontended core of the box the first results
were taken on.  The raw time is kept beside it.

Which kernel: of six candidates timed side by side through 64 passes
whose raw time spread 42-46 % (max - min over median), this pair left
6-7 %; an integer loop, dict copies or zlib alone left 17-25 %, because a
small loop loses less to a busy neighbour than a large program does.

The kernel belongs to the benchmark and is never to change with the
program: a faster program leaves it as it is, so the gain shows.  What
it allocates dies inside it, so it leaves the program's garbage
collector where it found it.
"""

from __future__ import annotations

from typing import Callable, List, Optional
from xml.etree import ElementTree

__all__ = ["REF_KERNEL_S", "MARK_GAP_S", "reference_kernel", "SpeedMeter"]

#: Seconds the kernel takes at the reference speed (1.0).
REF_KERNEL_S = 0.00158
#: Work between two timings of the kernel (it costs about 4 % of this).
MARK_GAP_S = 0.05

_TABLE = [{"id": i, "name": f"svc{i:05d}",
           "state": "done" if i % 3 else "active", "owner": f"user{i % 17}",
           "payload": "x" * (i % 50), "t": i * 0.5} for i in range(4000)]
_ENVELOPE = (
    "<soap:Envelope xmlns:soap='http://schemas.xmlsoap.org/soap/envelope/'>"
    "<soap:Header><a>1</a><b>tok</b></soap:Header>"
    "<soap:Body><m:execute xmlns:m='urn:x'>"
    + "".join(f"<p{i}>value{i}</p{i}>" for i in range(20))
    + "</m:execute></soap:Body></soap:Envelope>")


def reference_kernel() -> int:
    """Fixed interpreter work: XML round trips and a table scan."""
    for _ in range(12):
        ElementTree.tostring(ElementTree.fromstring(_ENVELOPE))
    hits = 0
    for row in _TABLE:
        copy = dict(row)
        if copy["name"] == "svc00777" and copy["state"] != "gone":
            hits += 1
    return hits


reference_kernel()  # first use loads the XML parser; not to be timed


class SpeedMeter:
    """Splits a timed span into stretches of work with the kernel timed
    between them.

    *clock* is ``time.process_time`` or ``time.perf_counter``.  With
    *since* the span began at that reading, before the meter existed
    (process entry), and its first stretch has a reference at its end
    only; without it the kernel runs once now, as the opening reference.
    The kernel's own time is in neither ``raw_s`` nor ``normalised_s``.
    """

    def __init__(self, clock: Callable[[], float],
                 since: Optional[float] = None) -> None:
        self._clock = clock
        self._work: List[float] = []
        self._refs: List[float] = []
        self._open: Optional[float] = None
        if since is None:
            t0 = clock()
            reference_kernel()
            since = clock()
            self._open = since - t0
        self._t = since

    def mark(self) -> None:
        """End a stretch of work here and time the kernel."""
        now = self._clock()
        reference_kernel()
        after = self._clock()
        self._work.append(now - self._t)
        self._refs.append(after - now)
        self._t = after

    def mark_if_due(self) -> None:
        if self._clock() - self._t >= MARK_GAP_S:
            self.mark()

    @property
    def raw_s(self) -> float:
        return sum(self._work)

    @property
    def normalised_s(self) -> float:
        """The work at the reference speed: each stretch scaled by
        ``REF_KERNEL_S`` over the mean kernel time at its two ends."""
        total, before = 0.0, self._open
        for work, after in zip(self._work, self._refs):
            kernel = after if before is None else (before + after) / 2.0
            total += work * REF_KERNEL_S / kernel
            before = after
        return total

    @property
    def slowdown(self) -> float:
        """Raw over normalised time: 1.0 on an uncontended core."""
        normalised = self.normalised_s
        return self.raw_s / normalised if normalised else 1.0
