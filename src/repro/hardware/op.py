"""The completion event of one modelled hardware operation.

A network transfer or a disk read/write is "wait the latency, then move
the bytes as one fair-share flow".  There is no control flow in that to
interrupt and nothing in it can fail on its own, so it is not a
process: it is a single :class:`HardwareOp` event whose bound methods
chain

    start slot → latency timeout → flow on the rated server → succeed

and whose value is the time elapsed since the operation was issued
(see DESIGN.md §5).  The start slot is the one queue hop a process start
used to provide: the flow joins its server in the order the operations
were issued relative to everything else queued for that instant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.simkernel.events import Event, Timeout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.fairshare import FairShareServer
    from repro.simkernel.kernel import Simulator

__all__ = ["HardwareOp"]


class HardwareOp(Event):
    """An event that fires when *work* has crossed *server* after *latency*.

    ``server=None`` is an operation that touches no device (a transfer
    from a host to itself): it completes with ``0.0`` in the same
    instant, still via the queue.
    """

    __slots__ = ("_server", "_latency", "_work", "_tags", "_issued_at")

    def __init__(self, sim: "Simulator", name: str,
                 server: Optional["FairShareServer"], latency: float,
                 work: float, tags: Tuple[str, ...]):
        super().__init__(sim, name)
        self._server = server
        self._latency = latency
        self._work = work
        self._tags = tags
        self._issued_at = sim.now
        sim._enqueue(self)  # pending: a start slot

    def _start(self, _slot: Event) -> None:
        if self._server is None:
            self.succeed(0.0)
        elif self._latency > 0:
            Timeout(self.sim, self._latency).callbacks.append(self._join)
        else:
            self._join(self)

    def _join(self, _event: Event) -> None:
        self._server.join(self._work, self._tags, self, self._issued_at)
