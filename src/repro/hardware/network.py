"""Network topology: hosts, links and bandwidth-limited transfers.

The network is an undirected graph of named hosts connected by
:class:`Link` objects.  A transfer between two hosts is routed along the
shortest path (fewest hops, ties broken by total capacity) and is *rated*
by the lowest-capacity link on that path: the transfer becomes a flow on
that bottleneck link's fair-share server, so transfers sharing a
bottleneck contend exactly.

Modelling note (see DESIGN.md §5): contention is only resolved at each
transfer's own bottleneck link — a transfer does not slow down when a
*non-bottleneck* link on its path becomes congested by others.  In the
paper's scenarios every contended path has one obvious bottleneck (the
WAN uplink to the grid, or the LAN into the appliance), so this
simplification does not change any reported shape.

Per-host cumulative in/out byte counters are maintained by tagging each
flow with ``in:<dst>`` and ``out:<src>``; the telemetry sampler reads them
to produce the network series in Figures 6–8.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import HardwareError
from repro.hardware.fairshare import FairShareServer
from repro.hardware.op import HardwareOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.kernel import Simulator

__all__ = ["Link", "Network"]

#: (rated server or None for a local copy, path latency, flow tags)
_Plan = Tuple[Optional[FairShareServer], float, Tuple[str, ...]]


class Link:
    """A bidirectional point-to-point link.

    Parameters
    ----------
    bandwidth:
        Capacity in bytes/second, shared by all flows rated on this link
        (both directions draw from the same pool, as on a half-duplex or
        congested full-duplex path).
    latency:
        One-way propagation delay in seconds, paid once per transfer.
    """

    def __init__(self, sim: "Simulator", a: str, b: str, bandwidth: float,
                 latency: float = 0.0, name: str = ""):
        if latency < 0:
            raise HardwareError("negative link latency")
        self.sim = sim
        self.a = a
        self.b = b
        self.bandwidth = float(bandwidth)
        self.latency = latency
        self.name = name or f"{a}<->{b}"
        self.server = FairShareServer(sim, capacity=bandwidth, name=self.name)

    def endpoints(self) -> Tuple[str, str]:
        return (self.a, self.b)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<Link {self.name} bw={self.bandwidth:.0f}B/s>"


class Network:
    """A graph of hosts and links supporting rated transfers."""

    def __init__(self, sim: "Simulator", name: str = "net"):
        self.sim = sim
        self.name = name
        self._links: List[Link] = []
        self._adjacency: Dict[str, List[Link]] = {}
        self._hosts: set[str] = set()
        # (src, dst) -> what a transfer between them needs: the rated
        # server, the path latency and the flow tags (see _plan).  Purely
        # an in-process speedup — all three are pure functions of the
        # topology — invalidated whenever a link is added.
        self._plans: Dict[Tuple[str, str], _Plan] = {}

    # -- topology -------------------------------------------------------------

    def add_host(self, hostname: str) -> None:
        """Register a host (idempotent)."""
        self._hosts.add(hostname)
        self._adjacency.setdefault(hostname, [])

    def connect(self, a: str, b: str, bandwidth: float,
                latency: float = 0.0, name: str = "") -> Link:
        """Create a link between hosts *a* and *b* (registering them)."""
        if a == b:
            raise HardwareError(f"cannot link {a!r} to itself")
        self.add_host(a)
        self.add_host(b)
        link = Link(self.sim, a, b, bandwidth, latency, name)
        self._links.append(link)
        self._adjacency[a].append(link)
        self._adjacency[b].append(link)
        self._plans.clear()
        return link

    def hosts(self) -> List[str]:
        return sorted(self._hosts)

    def links(self) -> List[Link]:
        return list(self._links)

    def route(self, src: str, dst: str) -> List[Link]:
        """Shortest path (fewest hops) between *src* and *dst* (BFS).

        Raises :class:`HardwareError` if either host is unknown or no
        path exists.
        """
        for host in (src, dst):
            if host not in self._hosts:
                raise HardwareError(f"unknown host {host!r}")
        if src == dst:
            return []
        # Deterministic BFS: neighbours explored in insertion order.
        frontier = [src]
        came_from: Dict[str, Tuple[str, Link]] = {}
        visited = {src}
        while frontier:
            nxt: List[str] = []
            for host in frontier:
                for link in self._adjacency[host]:
                    other = link.b if link.a == host else link.a
                    if other in visited:
                        continue
                    visited.add(other)
                    came_from[other] = (host, link)
                    if other == dst:
                        path: List[Link] = []
                        cur = dst
                        while cur != src:
                            prev, l = came_from[cur]
                            path.append(l)
                            cur = prev
                        path.reverse()
                        return path
                    nxt.append(other)
            frontier = nxt
        raise HardwareError(f"no route from {src!r} to {dst!r}")

    # -- transfers ----------------------------------------------------------

    def transfer(self, src: str, dst: str, nbytes: float,
                 label: str = "") -> HardwareOp:
        """Move *nbytes* from *src* to *dst*.

        The returned completion event fires when the last byte arrives;
        its value is the elapsed time.  Local (src == dst) transfers
        complete after zero time without touching any link.
        """
        if nbytes < 0:
            raise HardwareError("negative transfer size")
        plan = self._plans.get((src, dst))
        if plan is None:
            plan = self._plans[(src, dst)] = self._plan(src, dst)
        server, latency, tags = plan
        name = f"xfer:{src}->{dst}:{label}" if label else f"xfer:{src}->{dst}"
        return HardwareOp(self.sim, name, server, latency, nbytes, tags)

    def _plan(self, src: str, dst: str) -> _Plan:
        """Route *src* → *dst* and rate it on the path's bottleneck link."""
        path = self.route(src, dst)
        if not path:  # local copy: no network involved
            return (None, 0.0, ())
        bottleneck = min(path, key=lambda l: (l.bandwidth, l.name))
        return (bottleneck.server, sum(l.latency for l in path),
                ("all", f"in:{dst}", f"out:{src}"))

    # -- counters ---------------------------------------------------------------

    def bytes_in(self, hostname: str) -> float:
        """Cumulative bytes received by *hostname* (incl. in-flight)."""
        return self._sum_tag(f"in:{hostname}")

    def bytes_out(self, hostname: str) -> float:
        """Cumulative bytes sent by *hostname* (incl. in-flight)."""
        return self._sum_tag(f"out:{hostname}")

    def _sum_tag(self, tag: str) -> float:
        return sum(link.server.cumulative(tag) for link in self._links)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (f"<Network {self.name!r} hosts={len(self._hosts)} "
                f"links={len(self._links)}>")
