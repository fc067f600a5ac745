"""Discrete-event simulation kernel.

A small, deterministic, from-scratch discrete-event engine in the style of
SimPy: simulation *processes* are Python generators that ``yield`` events
(timeouts, other events, resource requests) and are resumed when those
events fire.  All timing in the reproduction — job execution, file
transfers, CPU contention, disk I/O — flows through one
:class:`~repro.simkernel.kernel.Simulator` instance, which makes every
experiment exactly reproducible.

Quick example::

    from repro.simkernel import Simulator

    sim = Simulator()

    def worker(name, delay):
        yield sim.timeout(delay)
        print(f"{name} done at t={sim.now}")

    sim.process(worker("a", 3.0))
    sim.process(worker("b", 1.5))
    sim.run()
"""

from repro.simkernel.events import AllOf, AnyOf, Event, Timeout
from repro.simkernel.kernel import Simulator
from repro.simkernel.process import Interrupt, Process
from repro.simkernel.resources import Resource
from repro.simkernel.rng import RngRegistry

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Process",
    "Interrupt",
    "Resource",
    "RngRegistry",
]
