"""MDS: the grid information / discovery service.

Sites register themselves; clients query for capacity to pick a
submission target.  The Cyberaide agent uses this for the "resource
selection" the paper's requirements list (§IV: "access Grid
infrastructures on the fly, like security interfaces, resource selection
and provision").
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import GridError
from repro.grid.site import GridSite

__all__ = ["InformationService"]


class InformationService:
    """A registry of sites with capacity queries.

    When built with a simulator the service keeps a time-stamped
    history of every :meth:`snapshot` and publishes each one on the
    telemetry bus, so capacity evolution over a run can be replayed
    (``history``) without re-running the scenario.
    """

    def __init__(self, name: str = "mds", sim=None):
        self.name = name
        self.sim = sim
        self._sites: Dict[str, GridSite] = {}
        #: (sim-time, capacity-table) pairs, one per snapshot() call.
        self.history: List[tuple] = []

    def register(self, site: GridSite) -> None:
        if site.name in self._sites:
            raise GridError(f"site {site.name!r} already registered")
        self._sites[site.name] = site

    def deregister(self, site_name: str) -> None:
        if site_name not in self._sites:
            raise GridError(f"site {site_name!r} not registered")
        del self._sites[site_name]

    def sites(self) -> List[GridSite]:
        return [self._sites[name] for name in sorted(self._sites)]

    def get_site(self, name: str) -> GridSite:
        try:
            return self._sites[name]
        except KeyError:
            raise GridError(f"site {name!r} not registered") from None

    def query(self, min_free_cores: int = 0,
              queue: Optional[str] = None) -> List[GridSite]:
        """Sites matching the constraints, best (most free cores) first."""
        hits = []
        for site in self._sites.values():
            if site.pool.free_cores < min_free_cores:
                continue
            if queue is not None and queue not in site.queues:
                continue
            hits.append(site)
        return sorted(hits, key=lambda s: (-s.pool.free_cores, s.name))

    def best_site(self, min_free_cores: int = 1) -> GridSite:
        """The least-loaded matching site (raises if none qualifies)."""
        hits = self.query(min_free_cores=min_free_cores)
        if not hits:
            raise GridError(
                f"no site with {min_free_cores} free cores available")
        return hits[0]

    def snapshot(self) -> List[Dict[str, object]]:
        """Capacity table of all sites (for reports).

        With a simulator attached, each snapshot is appended to
        :attr:`history` under the current sim-time and announced on the
        telemetry bus (pure bookkeeping — no simulation events).
        """
        table = [site.info() for site in self.sites()]
        if self.sim is not None:
            self.history.append((self.sim.now, table))
            from repro.telemetry.events import bus
            bus(self.sim).emit("mds.snapshot", layer="grid",
                               sites=len(table),
                               free_cores=sum(r.get("free_cores", 0)
                                              for r in table))
        return table

