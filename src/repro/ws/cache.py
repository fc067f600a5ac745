"""Client-side invocation caches: discovery, WSDL, generated stubs.

The paper's client workflow (§VII.B) re-runs UDDI discovery, re-fetches
the WSDL document, and re-runs ``wsimport`` on *every* call — exactly
the repeated one-time work JClarens' cached service discovery and
TAAROA's bind-once/execute-many split eliminate.  A :class:`ClientCache`
attached to a :class:`~repro.ws.client.WsClient` memoises all three:

* **discovery** — UDDI pattern -> ``(service_name, endpoint,
  wsdl_location)``, so a warm call skips both inquiry round-trips;
* **wsdl** — endpoint -> document bytes, skipping the document transfer
  over the (thin) appliance uplink;
* **stub** — the generated class itself is memoised process-wide by
  :func:`~repro.ws.client.generate_stub` (keyed by the WSDL bytes); the
  cache only remembers which classes *this* client has imported, so its
  hit/miss events keep meaning "did this client have to run wsimport".

Freshness is bounded by a *sim-time* TTL (never wall clock, so cached
runs stay deterministic), and entries are dropped eagerly when the
shared :class:`~repro.core.registry.ServiceStateStore` announces an
undeploy or a replacement upload — the contract DESIGN.md §9 spells
out.  Every lookup emits a ``cache.hit`` / ``cache.miss`` event on the
telemetry bus; a cache schedules nothing, so one that is attached but
never consulted cannot perturb a run.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple, Type

from repro.telemetry.events import bus

__all__ = ["ClientCache"]

#: Discovery triple: (service_name, endpoint, wsdl_location).
Discovery = Tuple[str, str, str]

#: Default freshness bound (simulated seconds).
DEFAULT_TTL = 3600.0


class ClientCache:
    """Per-client TTL cache over the discover -> WSDL -> stub pipeline."""

    def __init__(self, sim, ttl: float = DEFAULT_TTL):
        if ttl <= 0:
            raise ValueError("cache ttl must be > 0 (simulated seconds)")
        self.sim = sim
        self.ttl = ttl
        self._discovery: Dict[str, Tuple[float, Discovery]] = {}
        self._wsdl: Dict[str, Tuple[float, bytes]] = {}
        # service name -> keys stored for it, so invalidating a service
        # nobody cached costs two dict misses instead of two scans.
        # Supersets: only stores add to them; expiry and eviction leave
        # them alone and ``invalidate_service`` re-checks each key.
        self._patterns_of: Dict[str, Set[str]] = {}
        self._endpoints_of: Dict[str, Set[str]] = {}
        #: Stub classes this client has imported (hit/miss bookkeeping).
        self._imported: Set[Type] = set()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._bus = bus(sim)

    # -- bookkeeping --------------------------------------------------------

    def _record(self, cache: str, key: str, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        self._bus.emit("cache.hit" if hit else "cache.miss", layer="ws",
                       cache=cache, key=key)

    def _fresh(self, stored_at: float) -> bool:
        return self.sim.now - stored_at < self.ttl

    # -- discovery ----------------------------------------------------------

    def lookup_discovery(self, pattern: str) -> Optional[Discovery]:
        entry = self._discovery.get(pattern)
        if entry is not None and self._fresh(entry[0]):
            self._record("discovery", pattern, hit=True)
            return entry[1]
        if entry is not None:  # expired: drop it now
            del self._discovery[pattern]
        self._record("discovery", pattern, hit=False)
        return None

    def store_discovery(self, pattern: str, triple: Discovery) -> None:
        self._discovery[pattern] = (self.sim.now, triple)
        self._patterns_of.setdefault(triple[0], set()).add(pattern)

    # -- WSDL documents -----------------------------------------------------

    def lookup_wsdl(self, endpoint: str) -> Optional[bytes]:
        entry = self._wsdl.get(endpoint)
        if entry is not None and self._fresh(entry[0]):
            self._record("wsdl", endpoint, hit=True)
            return entry[1]
        if entry is not None:
            del self._wsdl[endpoint]
        self._record("wsdl", endpoint, hit=False)
        return None

    def store_wsdl(self, endpoint: str, document: bytes) -> None:
        self._wsdl[endpoint] = (self.sim.now, document)
        # Filed under the endpoint's last path segment — the service
        # name in every ``soap://host/Service`` address.
        _, slash, service_name = endpoint.rpartition("/")
        if slash:
            self._endpoints_of.setdefault(service_name, set()).add(endpoint)

    # -- generated stubs ----------------------------------------------------

    def stub_class(self, document: bytes) -> Type:
        """The wsimport product for *document*.

        Stub classes are pure derivations of the WSDL bytes and
        :func:`~repro.ws.client.generate_stub` memoises them by those
        bytes, so staleness is impossible: a republished service with a
        changed interface has different bytes, hence a new stub.  A hit
        is a class this client has imported before.
        """
        from repro.ws.client import generate_stub

        stub = generate_stub(document)
        hit = stub in self._imported
        self._imported.add(stub)
        self._record("stub", stub.__name__, hit=hit)
        return stub

    # -- invalidation -------------------------------------------------------

    def invalidate_service(self, service_name: str) -> None:
        """Drop everything cached about *service_name*.

        Subscribed to the shared state store's removal and republish
        fan-out, so neither an undeployed nor a replaced service can be
        served stale.
        """
        discovery = self._discovery
        stale_patterns = [
            p for p in self._patterns_of.pop(service_name, ())
            if p in discovery and discovery[p][1][0] == service_name]
        stale_endpoints = [
            e for e in self._endpoints_of.pop(service_name, ())
            if e in self._wsdl]
        for pattern in stale_patterns:
            del self._discovery[pattern]
        for endpoint in stale_endpoints:
            del self._wsdl[endpoint]
        if stale_patterns or stale_endpoints:
            self.invalidations += 1
            self._bus.emit("cache.invalidate", layer="ws",
                           service=service_name,
                           discovery=len(stale_patterns),
                           wsdl=len(stale_endpoints))

    def evict_endpoint(self, endpoint: str) -> None:
        """Drop everything cached *about endpoint* (failover eviction).

        When a call through *endpoint* dies with a transport-level
        fault (``ReplicaDown``), the cached discovery triple and WSDL
        document pointing at it may name a corpse: evict them so the
        next attempt re-resolves through UDDI/the router instead of
        re-dialing from a stale binding.  Stub classes stay — they are
        pure derivations of WSDL bytes and carry no endpoint state.
        """
        stale_patterns = [p for p, (_, triple) in self._discovery.items()
                          if triple[1] == endpoint]
        for pattern in stale_patterns:
            del self._discovery[pattern]
        had_wsdl = endpoint in self._wsdl
        if had_wsdl:
            del self._wsdl[endpoint]
        if stale_patterns or had_wsdl:
            self.invalidations += 1
            self._bus.emit("cache.invalidate", layer="ws",
                           endpoint=endpoint,
                           discovery=len(stale_patterns),
                           wsdl=int(had_wsdl))

    def clear(self) -> None:
        """Forget every discovery triple and WSDL document.  Imported
        stubs stay: they are pure and carry no endpoint state."""
        self._discovery.clear()
        self._wsdl.clear()
        self._patterns_of.clear()
        self._endpoints_of.clear()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (f"<ClientCache hits={self.hits} "
                f"misses={self.misses} ttl={self.ttl}>")
