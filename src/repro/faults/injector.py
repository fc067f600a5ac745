"""The deterministic fault injector.

One :class:`FaultInjector` hangs off a simulator (the same lazy-attach
pattern the telemetry bus uses) and interprets the configured
:class:`~repro.faults.spec.FaultSpec` list.  The layers that can fail
call the hooks at their injection points:

* ``fire(kind, target)`` — probabilistic / capped faults: returns the
  spec that triggered (caller raises the matching typed error) or
  ``None``.
* ``down(site)`` — passive site-outage window check.
* ``install(testbed)`` — arms scheduled faults (node crashes) as
  simulation timers.

Determinism contract
--------------------
Injection randomness draws exclusively from named
:class:`~repro.simkernel.rng.RngRegistry` streams
(``fault:<kind>:<target>``), so identical seeds produce identical fault
schedules.  When *no* specs are configured, :func:`get_injector` returns
``None`` and every hook is a single attribute lookup: no simulation
events, no RNG draws, no bus traffic — which is what keeps the golden
series byte-identical with the fault plane imported but disabled.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, TYPE_CHECKING

from repro.errors import OnServeError
from repro.faults.spec import FaultSpec
from repro.telemetry.events import bus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.grid.testbed import Testbed
    from repro.simkernel.kernel import Simulator

__all__ = ["FaultInjector", "fault_plane", "get_injector"]


class FaultInjector:
    """Interprets fault specs for one simulator run."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._specs: Dict[str, List[FaultSpec]] = {}
        self._armed: List[FaultSpec] = []
        self._bus = bus(sim)
        #: Total faults actually injected (all kinds).
        self.injected = 0

    # -- configuration ------------------------------------------------------

    def add(self, spec: FaultSpec) -> "FaultInjector":
        self._specs.setdefault(spec.kind, []).append(spec)
        return self

    def configure(self, specs: Iterable[FaultSpec]) -> "FaultInjector":
        for spec in specs:
            self.add(spec)
        return self

    @property
    def active(self) -> bool:
        """True when any fault spec is configured."""
        return bool(self._specs)

    def specs(self, kind: Optional[str] = None) -> List[FaultSpec]:
        if kind is not None:
            return list(self._specs.get(kind, ()))
        return [s for specs in self._specs.values() for s in specs]

    # -- hooks --------------------------------------------------------------

    def fire(self, kind: str, target: str = "") -> Optional[FaultSpec]:
        """Should fault *kind* trigger against *target* right now?

        Returns the triggering spec (the caller raises the typed error
        and may read ``spec.duration`` etc.) or ``None``.  Probabilistic
        specs draw from the ``fault:<kind>:<target>`` RNG stream.
        """
        specs = self._specs.get(kind)
        if not specs:
            return None
        for spec in specs:
            if (spec.exhausted or not spec.matches(target)
                    or not spec.active_at(self.sim.now)):
                continue
            if spec.rate < 1.0:
                rng = self.sim.rng.stream(f"fault:{spec.kind}:{spec.target}")
                if rng.random() >= spec.rate:
                    continue
            return self._trigger(spec, target)
        return None

    def down(self, site: str) -> Optional[FaultSpec]:
        """Is *site* inside a configured outage window right now?"""
        specs = self._specs.get("site.outage")
        if not specs:
            return None
        for spec in specs:
            if spec.matches(site) and spec.active_at(self.sim.now):
                return self._trigger(spec, site)
        return None

    def install(self, testbed: "Testbed") -> "FaultInjector":
        """Arm scheduled faults (node crashes) as simulation timers.

        Idempotent per spec: re-installing (e.g. after adding specs)
        only arms the new ones.
        """
        for spec in self.specs("node.crash"):
            if spec in self._armed:
                continue
            self._armed.append(spec)

            def crash(spec: FaultSpec = spec):
                if spec.at > self.sim.now:
                    yield self.sim.timeout(spec.at - self.sim.now,
                                           name="fault:node-crash")
                site = (testbed.sites[0] if spec.target == "*"
                        else testbed.site(spec.target))
                node = spec.node or site.pool.nodes[0].name
                killed = site.fail_node(node)
                self._trigger(spec, site.name, node=node,
                              jobs_killed=len(killed))

            self.sim.process(crash(), name=f"fault:node.crash:{spec.target}")
        return self

    def install_fabric(self, stack) -> "FaultInjector":
        """Arm ``replica.crash`` specs against a deployed fabric stack.

        Each spec kills one replica at a seeded instant drawn uniformly
        inside its window (``target`` names the replica, or ``"*"`` for
        a seeded pick among the replicas still routable at fire time).
        Idempotent per spec, like :meth:`install`.  An unrouted stack
        has no replica to crash: arming one raises ``OnServeError``.
        """
        if stack.router is None and self.specs("replica.crash"):
            raise OnServeError("replica.crash needs a routed fabric")
        for spec in self.specs("replica.crash"):
            if spec in self._armed:
                continue
            self._armed.append(spec)

            def crash(spec: FaultSpec = spec):
                start, end = spec.window
                rng = self.sim.rng.stream(
                    f"fault:replica.crash:{spec.target}")
                at = start + rng.random() * (end - start)
                if at > self.sim.now:
                    yield self.sim.timeout(at - self.sim.now,
                                           name="fault:replica-crash")
                name = spec.target
                if name == "*":
                    live = stack.router.replicas()
                    if not live:
                        return
                    name = live[rng.randrange(len(live))]
                killed = stack.crash_replica(name)
                self._trigger(spec, name, inflight_killed=killed)

            self.sim.process(crash(),
                             name=f"fault:replica.crash:{spec.target}")
        return self

    # -- internals ----------------------------------------------------------

    def _trigger(self, spec: FaultSpec, target: str,
                 **extra) -> FaultSpec:
        spec.fires += 1
        self.injected += 1
        self._bus.emit("fault.injected", layer="fault", fault=spec.kind,
                       target=target, fires=spec.fires, **extra)
        return spec


def fault_plane(sim: "Simulator") -> FaultInjector:
    """The simulator's fault injector (lazily attached, one per run)."""
    existing = getattr(sim, "_fault_injector", None)
    if existing is None:
        existing = FaultInjector(sim)
        sim._fault_injector = existing  # type: ignore[attr-defined]
    return existing


def get_injector(sim: "Simulator") -> Optional[FaultInjector]:
    """The *active* injector, or ``None``.

    This is the hook-side accessor: it never attaches anything, and it
    returns ``None`` when no fault specs are configured, so the happy
    path stays one attribute lookup with zero side effects.
    """
    injector = getattr(sim, "_fault_injector", None)
    if injector is None or not injector.active:
        return None
    return injector
