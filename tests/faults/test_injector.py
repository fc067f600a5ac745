"""FaultInjector: hooks, determinism, and the disabled-plane contract."""

from repro.faults import FaultSpec, fault_plane, get_injector
from repro.grid import build_testbed
from repro.simkernel import Simulator
from repro.telemetry.events import bus


def test_fault_plane_attaches_once():
    sim = Simulator()
    injector = fault_plane(sim)
    assert fault_plane(sim) is injector


def test_get_injector_is_none_until_specs_exist():
    sim = Simulator()
    assert get_injector(sim) is None          # nothing attached
    injector = fault_plane(sim)
    assert get_injector(sim) is None          # attached but no specs
    injector.add(FaultSpec("gram.refuse"))
    assert get_injector(sim) is injector


def test_fire_triggers_counts_and_emits():
    sim = Simulator()
    injector = fault_plane(sim).add(FaultSpec("gram.refuse", max_fires=2))
    spec = injector.fire("gram.refuse", "ncsa")
    assert spec is not None and spec.fires == 1
    assert injector.injected == 1
    events = bus(sim).events(kind="fault.injected")
    assert len(events) == 1
    assert events[0].get("fault") == "gram.refuse"
    assert events[0].get("target") == "ncsa"


def test_fire_respects_target_cap_and_kind():
    sim = Simulator()
    injector = fault_plane(sim).add(
        FaultSpec("gram.refuse", target="ncsa", max_fires=1))
    assert injector.fire("gridftp.abort", "ncsa") is None   # other kind
    assert injector.fire("gram.refuse", "sdsc") is None     # other site
    assert injector.fire("gram.refuse", "ncsa") is not None
    assert injector.fire("gram.refuse", "ncsa") is None     # exhausted
    assert injector.injected == 1


def test_fire_rate_zero_never_triggers():
    sim = Simulator()
    injector = fault_plane(sim).add(FaultSpec("gram.refuse", rate=0.0))
    assert all(injector.fire("gram.refuse", "ncsa") is None
               for _ in range(50))


def test_fire_rate_draws_are_seed_deterministic():
    def pattern(seed):
        sim = Simulator(seed=seed)
        injector = fault_plane(sim).add(FaultSpec("gram.refuse", rate=0.5))
        return [injector.fire("gram.refuse", "ncsa") is not None
                for _ in range(32)]

    assert pattern(0) == pattern(0)
    assert True in pattern(0) and False in pattern(0)
    assert pattern(0) != pattern(1)  # different seed, different schedule


def test_down_only_inside_window():
    sim = Simulator()
    injector = fault_plane(sim).add(
        FaultSpec("site.outage", target="ncsa", window=(10.0, 20.0)))
    assert injector.down("ncsa") is None          # before the window
    sim.run(until=15.0)
    assert injector.down("sdsc") is None          # other site
    assert injector.down("ncsa") is not None
    sim.run(until=25.0)
    assert injector.down("ncsa") is None          # window passed


def test_install_arms_node_crash_timer():
    tb = build_testbed(n_sites=1, nodes_per_site=2, cores_per_node=2)
    sim = tb.sim
    first_node = tb.sites[0].pool.nodes[0].name
    injector = tb.install_faults([FaultSpec("node.crash", at=10.0)])
    assert injector is fault_plane(sim)
    sim.run(until=20.0)
    events = bus(sim).events(kind="fault.injected")
    assert len(events) == 1
    assert events[0].ts == 10.0
    assert events[0].get("fault") == "node.crash"
    assert events[0].get("node") == first_node
    assert injector.injected == 1


def test_install_is_idempotent_per_spec():
    tb = build_testbed(n_sites=1, nodes_per_site=2, cores_per_node=2)
    injector = tb.install_faults([FaultSpec("node.crash", at=5.0)])
    injector.install(tb)  # re-install must not arm a second timer
    tb.sim.run(until=10.0)
    assert injector.injected == 1


def test_disabled_injector_adds_no_events_to_a_run():
    def run(attach):
        sim = Simulator()
        if attach:
            fault_plane(sim)  # attached, zero specs => disabled

        def op():
            yield sim.timeout(5.0)
            return sim.events_processed

        sim.run(until=sim.process(op()))
        return sim.events_processed

    assert run(attach=False) == run(attach=True)
