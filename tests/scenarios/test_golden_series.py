"""Golden-file determinism: figure series must be byte-identical.

The committed CSVs under ``tests/scenarios/golden/`` were produced from
the figure scenarios at seed 0.  Any change to event ordering anywhere
in the stack — kernel, network, SOAP dispatch, the interceptor pipeline
— shows up here as a byte diff, which is exactly the property the
request fabric promises not to break.
"""

from pathlib import Path

import pytest

from repro.scenarios import run_fig6, run_fig7, run_fig8
from repro.telemetry.report import to_csv

GOLDEN_DIR = Path(__file__).parent / "golden"

FIGURES = {
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
}


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_series_match_committed_goldens(name):
    golden_path = GOLDEN_DIR / f"{name}.csv"
    golden = golden_path.read_text()
    result = FIGURES[name](seed=0)
    actual = to_csv(result.series) + "\n"
    assert actual == golden, (
        f"{name} series drifted from {golden_path} — determinism broke "
        f"(or the scenario changed; regenerate the golden deliberately)")


@pytest.fixture
def golden_with(monkeypatch):
    """``golden_with(name, attach)``: assert figure *name* still matches
    its golden when ``attach(stack)`` runs right after deployment."""
    import repro.scenarios.common as common

    real_deploy = common.deploy_fabric

    def check(name, attach, what):
        def attaching_deploy(testbed, config=None, **kw):
            proc = real_deploy(testbed, config, **kw)
            proc.add_callback(
                lambda ev: attach(ev._value) if ev._ok else None)
            return proc

        monkeypatch.setattr(common, "deploy_fabric", attaching_deploy)
        golden = (GOLDEN_DIR / f"{name}.csv").read_text()
        actual = to_csv(FIGURES[name](seed=0).series) + "\n"
        assert actual == golden, (
            f"{name} drifted with {what} attached — the plane perturbed "
            f"the simulation")

    return check


def attach_cold_caches(stack):
    """Real caches: each figure binds its one service once, so every
    lookup is a first miss and nothing is ever served from a cache."""
    return stack.enable_client_caches()


def attach_healing_router(stack):
    """A disabled router carrying the *full* self-healing configuration
    (leases, dedup store, overload ladder); returns its store."""
    from repro.core.registry import ServiceStateStore
    from repro.ws.router import RequestRouter

    store = ServiceStateStore(stack.dbmanager.db)
    idle = RequestRouter(stack.appliance_host, stack.fabric,
                         enabled=False, store=store,
                         self_healing=True, lease_ttl=15.0,
                         lease_check_interval=5.0, fault_threshold=2,
                         shed_limit=8, backpressure_threshold=16)
    idle.add_replica(stack.appliance_host.name, stack.soap_server,
                     stack.onserve)
    stack.onserve.router = idle
    return store


def assert_healing_plane_idle(store):
    # Nothing leased, nothing deduped: the plane never woke up.
    assert store.members() == []
    assert store.dedup_count() == 0


def attach_idle_queue(stack):
    """A durable queue with every gatekeeper attached as *incapable*."""
    from repro.grid.notify import NotifyQueue

    queue = NotifyQueue(stack.sim, stack.dbmanager.db)
    for gatekeeper in stack.testbed.gatekeepers.values():
        gatekeeper.attach_notify(queue, capable=False)
    stack.onserve.notify_queue = queue
    return queue


def assert_queue_idle(queue):
    from repro.grid.notify import JOB_STATES_TABLE, NOTIFY_QUEUE_TABLE

    # Provably idle: nothing published, both durable tables empty.
    assert queue.published == 0 and queue.capable_sites == []
    assert queue.db.select(JOB_STATES_TABLE, lambda r: True) == []
    assert queue.db.select(NOTIFY_QUEUE_TABLE, lambda r: True) == []


def attach_db_tier(stack):
    """MVCC on (pure bookkeeping) + a WAL-shipping replica no read router
    ever consults."""
    from repro.db.replica import ReadReplica

    stack.dbmanager.db.mvcc = True
    return ReadReplica(stack.sim, stack.dbmanager.db, lag=0.5)


def assert_replica_idle(replica):
    # Shipping is a list append and application is lazy: the unread
    # replica queued the run's frames and never applied one.
    assert replica.backlog() > 0
    assert replica.records_applied == 0


def attach_tower(stack):
    from repro.telemetry.fleet import ControlTower
    from repro.telemetry.profiler import KernelProfiler
    from repro.telemetry.slo import BurnRule, SloSpec

    specs = [SloSpec("golden-availability", availability=0.99,
                     compliance_window=600.0, min_samples=1),
             SloSpec("golden-latency", latency_target=30.0,
                     compliance_window=600.0, min_samples=1)]
    return ControlTower(stack.sim, specs=specs,
                        rules=(BurnRule(30.0, 120.0, 2.0),),
                        profiler=KernelProfiler(stack.sim))


def assert_tower_observed(tower):
    # The tower actually observed the run (not vacuously pure).  fig8
    # is upload+generate — no client-side ws.request stream — so the
    # SLO sample check only applies where that stream exists.
    from repro.telemetry.events import bus as telemetry_bus

    assert tower.profiler.events_dispatched > 0
    requests = telemetry_bus(tower.sim).events("ws.request")
    if any(ev.get("side") == "client" for ev in requests):
        assert tower.slo.samples_recorded > 0
    tower.close()


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_goldens_unchanged_with_inert_cache_layer(name, golden_with):
    """Attached client caches that never hit must not perturb a run.

    The cache layer's determinism contract: a cache schedules nothing —
    a miss costs two dict lookups and a bus event — and the coalescing
    plane (always attached, enabled only by ``config.coalesce``)
    creates zero events on the default path.  Each figure binds its
    service at most once, so with caches on every client no lookup is
    ever a hit and the run must reproduce the committed goldens
    byte-for-byte.
    """
    caches = []
    golden_with(name, lambda s: caches.extend(attach_cold_caches(s)),
                "cold client caches")
    assert all(cache.hits == 0 for cache in caches)


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_goldens_unchanged_with_idle_healing_plane_attached(
        name, golden_with):
    """A self-healing-*configured* but disabled router must stay inert.

    The self-healing determinism contract (DESIGN.md §13): leases,
    failover dedup and the overload ladder all hang off a router that
    is ``self_healing=True`` and holds a state store — but none of it
    runs until ``start_membership_watch`` / heartbeats start.  A
    disabled router with the full healing configuration attached (in
    place of the plain disabled one every single-appliance deployment
    already carries) must not cost one event, and its membership/dedup
    tables must stay empty for the whole run.
    """
    stores = []
    golden_with(name, lambda s: stores.append(attach_healing_router(s)),
                "the idle self-healing plane")
    assert_healing_plane_idle(stores[-1])


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_goldens_unchanged_with_idle_notify_queue_attached(
        name, golden_with):
    """An attached durable queue with no capable site must stay inert.

    The notification-plane determinism contract (DESIGN.md §14): a
    :class:`~repro.grid.notify.NotifyQueue` wired to the stack — every
    gatekeeper attached as *incapable* — publishes nothing, schedules
    nothing and leaves both durable tables empty, because the only
    event source is ``publish`` and only capable gatekeepers call it.
    Re-running each figure with one attached must reproduce the
    committed goldens byte-for-byte.
    """
    queues = []
    golden_with(name, lambda s: queues.append(attach_idle_queue(s)),
                "an idle notify queue")
    assert_queue_idle(queues[-1])


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_goldens_unchanged_with_mvcc_and_idle_replica(name, golden_with):
    """MVCC on + an attached-but-unread read replica must stay inert.

    The DB-scale determinism contract (DESIGN.md §15): MVCC is pure
    bookkeeping — version chains are saved and pruned in the writer's
    stack frame, no simulation event is ever created — and a
    :class:`~repro.db.replica.ReadReplica` only queues what the WAL tap
    ships until a reader asks for it.  Re-running each figure with the
    engine in MVCC mode and a replica nobody reads attached to the
    appliance database must reproduce the committed goldens
    byte-for-byte.
    """
    replicas = []
    golden_with(name, lambda s: replicas.append(attach_db_tier(s)),
                "MVCC + an unread replica")
    assert_replica_idle(replicas[-1])


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_goldens_unchanged_with_control_tower_attached(name, golden_with):
    """An attached-but-observing control tower must not perturb a run.

    The observability-plane determinism contract (DESIGN.md §12): the
    SLO tracker, fleet rollup and kernel profiler record in emitter
    stack frames and measure wall-clock only — zero simulation events,
    zero simulated time.  Re-running each figure with a full tower
    (SLO specs live, profiler hooks installed) must reproduce the
    committed goldens byte-for-byte.
    """
    towers = []
    golden_with(name, lambda s: towers.append(attach_tower(s)),
                "the control tower")
    assert_tower_observed(towers[-1])


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_goldens_unchanged_with_every_plane_attached(
        name, golden_with, monkeypatch):
    """All of the above at once, plus the planes with no guard of their
    own: a fault plane with zero specs on the simulator, the (disabled)
    GridFTP session pool and one idle PollMux per site.  The planes must
    stay invisible *together*, not only one at a time."""
    import repro.scenarios.common as common
    from repro.faults.injector import fault_plane

    class FaultAwareSimulator(common.Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            fault_plane(self)  # attached, zero specs => disabled

    monkeypatch.setattr(common, "Simulator", FaultAwareSimulator)
    attached = []

    def attach_everything(stack):
        attach_cold_caches(stack)
        pool = stack.agent._ftp_sessions
        assert pool is not None and not pool.enabled
        for site in stack.testbed.gatekeepers:
            assert stack.onserve.poll_mux(site).pending == 0
        attached.append((attach_healing_router(stack),
                         attach_idle_queue(stack), attach_db_tier(stack),
                         attach_tower(stack)))

    golden_with(name, attach_everything, "every plane")
    store, queue, replica, tower = attached[-1]
    assert_healing_plane_idle(store)
    assert_queue_idle(queue)
    assert_replica_idle(replica)
    assert_tower_observed(tower)
