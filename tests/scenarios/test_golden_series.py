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


def attach_idle_queue(stack):
    """A notify queue with every gatekeeper attached as *incapable*."""
    from repro.grid.notify import NotifyQueue

    queue = NotifyQueue(stack.sim, stack.dbmanager.db)
    for gatekeeper in stack.testbed.gatekeepers.values():
        gatekeeper.attach_notify(queue, capable=False)
    stack.onserve.notify_queue = queue
    return queue


def assert_queue_idle(queue):
    from repro.grid.notify import JOB_STATES_TABLE

    # Provably idle: nothing published, the durable table empty.
    assert queue.published == 0 and queue.capable_sites == []
    assert queue.db.select(JOB_STATES_TABLE, lambda r: True) == []


def attach_db_tier(stack):
    """MVCC on, the way ``OnServeConfig(db_mvcc=True)`` sets it (on the
    tier the config and the DbManager share), + a WAL-shipping replica
    nobody reads; returns (DbManager, replica)."""
    from repro.db.replica import ReadReplica

    manager = stack.dbmanager
    assert manager.tier is stack.onserve.config.db_tier
    manager.tier.mvcc = True
    return manager, ReadReplica(stack.sim, manager.db, lag=0.5)


def assert_db_tier_inert(manager, replica):
    from repro.telemetry.events import bus

    # Every fetch (fig6 and fig7 make some) took the lock-free read...
    fetches = bus(manager.sim).counts().get("db.fetch", 0)
    assert manager.db.stats["snapshot_reads"] == fetches
    # ...and shipping is a list append and application is lazy: the
    # unread replica queued the run's frames and never applied one.
    assert replica.backlog() > 0
    assert replica.records_applied == 0


def attach_profiler(stack):
    from repro.telemetry.profiler import KernelProfiler

    return KernelProfiler(stack.sim).attach()


def assert_profiler_observed(profiler):
    # The profiler actually timed the run (not vacuously pure).
    assert profiler.events_dispatched > 0
    profiler.detach()


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
def test_goldens_unchanged_with_idle_notify_queue_attached(
        name, golden_with):
    """An attached notify queue with no capable site must stay inert.

    The notification-plane determinism contract (DESIGN.md §14): a
    :class:`~repro.grid.notify.NotifyQueue` wired to the stack — every
    gatekeeper attached as *incapable* — publishes nothing, schedules
    nothing and leaves the ``job_states`` table empty, because the only
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

    The DB-scale determinism contract (DESIGN.md §15): an MVCC read is
    the lock-free read of committed state, which an uncontended tier
    reads in the same frame the locked read would — no simulation event
    is ever created — and a :class:`~repro.db.replica.ReadReplica` only
    queues what the WAL tap ships until a reader asks for it.
    Re-running each figure with the tier in MVCC mode and a replica
    nobody reads attached to the appliance database must reproduce the
    committed goldens byte-for-byte.
    """
    tiers = []
    golden_with(name, lambda s: tiers.append(attach_db_tier(s)),
                "MVCC + an unread replica")
    assert_db_tier_inert(*tiers[-1])


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_goldens_unchanged_with_kernel_profiler_attached(name, golden_with):
    """An attached kernel profiler must not perturb a run.

    The profiler's determinism contract (DESIGN.md §12): it swaps the
    kernel's callback loop for a timed one and hooks the bus and the
    gauges, measuring wall-clock only — zero simulation events, zero
    simulated time.  Re-running each figure with its hooks installed
    must reproduce the committed goldens byte-for-byte.
    """
    profilers = []
    golden_with(name, lambda s: profilers.append(attach_profiler(s)),
                "the kernel profiler")
    assert_profiler_observed(profilers[-1])


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_goldens_unchanged_with_every_plane_attached(
        name, golden_with, monkeypatch):
    """All of the above at once, plus the planes with no guard of their
    own: a fault plane with zero specs on the simulator and the
    (disabled) control-channel pool.  The planes must stay invisible
    *together*, not only one at a time."""
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
        pool = stack.agent._channels
        assert pool is not None and not pool.enabled
        attached.append((attach_idle_queue(stack), attach_db_tier(stack),
                         attach_profiler(stack)))

    golden_with(name, attach_everything, "every plane")
    queue, db_tier, profiler = attached[-1]
    assert_queue_idle(queue)
    assert_db_tier_inert(*db_tier)
    assert_profiler_observed(profiler)


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_goldens_unchanged_and_nothing_seeded_on_the_faithful_path(
        name, golden_with):
    """The faithful profile never stages at publish.

    Publish-time staging (DESIGN.md §10) runs only under ``stage_once``
    on a routed fabric; the paper's appliance keeps §VII.B's order —
    the DB load before the agent stages anything — writes no digest and
    no seed marker, and emits no ``core.seed_*`` event.
    """
    from repro.cyberaide.jobspec import staged_path_for
    from repro.telemetry.events import bus as telemetry_bus

    seen = []

    def watch(stack):
        assert not stack.onserve.stages_at_publish
        kinds = []
        telemetry_bus(stack.sim).subscribe(lambda ev: kinds.append(ev.kind))
        seen.append((stack, kinds))

    golden_with(name, watch, "a bus observer of the seed ladder")
    stack, kinds = seen[-1]
    assert not [k for k in kinds if k.startswith("core.seed")]
    assert all(stack.store.seed_flight(staged_path_for(r["executable_name"]))
               is None for r in stack.store.all_records())
    assert all(r["digest"] == "" for r in stack.store.all_records())
    if "agent.upload" in kinds:
        assert kinds.index("db.fetch") < kinds.index("agent.upload")
