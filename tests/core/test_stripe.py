"""Stripe a cold stage across the fabric's uplinks (DESIGN.md §10).

A stage that finds no holder of its bytes cuts a large payload into
ranges and hands all but the first to peer replicas, each of which PUTs
its range over its own uplink; the site shows the file once the ranges
cover it.  Whatever fails on the way — a peer crashing under its range,
an aborted data channel, the leader itself dying — the site must end
with exactly the published bytes, the store with one ``staged_copies``
row written after that, and nobody with a half-finished transfer.
"""

import hashlib

import pytest

from repro.core.context import RequestContext
from repro.core.fabric import deploy_fabric
from repro.core.grid_service import GridServiceRuntime
from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig
from repro.cyberaide.jobspec import staged_path_for
from repro.faults import FaultSpec, fault_plane
from repro.grid.site import GridSite
from repro.grid.testbed import build_testbed
from repro.resilience.breaker import OPEN
from repro.simkernel import Simulator
from repro.telemetry.critical_path import analyze_request
from repro.telemetry.events import bus
from repro.telemetry.gauges import gauges
from repro.units import KB
from repro.workloads.executables import make_payload

#: Four replicas' worth of ranges, each long enough on the wire (~1.5 s
#: at 85 KB/s) that its fixed cost is noise and a test can act while
#: every range is in flight.
SIZE = 4 * 8 * GridServiceRuntime.STRIPE_MIN_BYTES
PATH = staged_path_for("echo.sh")


def deploy(replicas=4, size=SIZE, **fabric):
    sim = Simulator(seed=0)
    tb = build_testbed(sim=sim, n_sites=2, nodes_per_site=2,
                       cores_per_node=4, n_users=1)
    config = OnServeConfig(coalesce=True, datapath=True, notify=True)
    stack = sim.run(until=deploy_fabric(tb, config, replicas=replicas,
                                        **fabric))
    payload = make_payload("echo", size=size)
    sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "echo.sh", payload, params_spec="token:string"))
    return sim, tb, stack, payload


def invoke(sim, stack, token="tok", ctx=None):
    return discover_and_invoke(stack, stack.user_clients[0], "Echo%",
                               ctx=ctx, token=token)


def leader_and_peers(stack):
    leader = stack.router.ring.owner("EchoService")
    return leader, [r.name for r in stack.router.peers(leader)]


def uploads(stack):
    return {o.replica: o.agent.uploads for o in stack.onserves}


def when_all_ranges_are_in_flight(sim, tb, k, action):
    """Run *action* once some site has *k* data connections open."""
    def op():
        streams = [gauges(sim).gauge(f"gridftp.{s.name}.streams")
                   for s in tb.sites]
        while max(g.current for g in streams) < k:
            yield sim.timeout(0.05)
        action()
    return sim.process(op(), name="test:mid-transfer")


def assert_staged_exactly_once(tb, stack, payload):
    """The right bytes on one site, one row, no transfer left open."""
    [(site, path, digest)] = stack.store.staged_copies()
    assert path == PATH
    assert tb.site(site).read_file(PATH) == payload
    assert digest == hashlib.sha256(payload).hexdigest()
    assert all(s.incoming == {} for s in tb.sites)
    assert all(o.host.memory_used == 0 for o in stack.onserves)
    return site


# -- the choreography -------------------------------------------------------

def test_a_cold_stage_rides_every_uplink_and_a_warm_one_none():
    sim, tb, stack, payload = deploy()
    leader, peers = leader_and_peers(stack)
    ctx = RequestContext.create(sim)
    for onserve in stack.onserves:
        onserve.host.memory_peak = 0.0  # forget the publish
    assert sim.run(until=invoke(sim, stack, "one", ctx=ctx)) == "one\n"
    assert uploads(stack) == {name: 1 for name in [leader] + peers}
    assert [ev.fields["nbytes"] for ev in bus(sim).events(
        kind="agent.upload")] == [SIZE // 4] * 4
    site = assert_staged_exactly_once(tb, stack, payload)
    # Each peer held its range, and only its range, while it carried it.
    assert {o.replica: o.host.memory_peak for o in stack.onserves
            if o.replica in peers} == {name: SIZE // 4 for name in peers}
    # The trace: four gridftp:put under service:upload, side by side.
    upload = ctx.root.find("service:upload")
    puts = [s for _d, s in upload.walk() if s.name == "gridftp:put"]
    assert len(puts) == 4 and all(p.meta["site"] == site for p in puts)
    assert max(p.start for p in puts) < min(p.end for p in puts)
    stripes = [c for c in upload.children if c.name == "service:stripe"]
    assert sorted(s.meta["replica"] for s in stripes) == sorted(peers)
    # ... of which the analyzer charges one chain, to the last second.
    att = analyze_request(ctx)
    assert att.unattributed == pytest.approx(0.0, abs=1e-9)
    assert att.buckets["grid/transfer"] < sum(p.duration for p in puts) / 2
    # Four uplinks: the stage takes about a quarter of one PUT's time.
    whole = SIZE / 85e3
    assert upload.duration < whole / 2
    # Warm: the row is there, nothing moves.
    assert sim.run(until=invoke(sim, stack, "two")) == "two\n"
    assert sum(uploads(stack).values()) == 4


def test_a_256kb_cold_stage_on_eight_replicas_makes_eight_puts():
    # Each 32 KB range's wire time dwarfs its fixed cost, so every idle
    # uplink carries one (the peers log on cold here, hence only 3x).
    size = int(KB(256))
    sim, tb, stack, payload = deploy(replicas=8, size=size)
    ctx = RequestContext.create(sim)
    assert sim.run(until=invoke(sim, stack, ctx=ctx)) == "tok\n"
    upload = ctx.root.find("service:upload")
    puts = [s for _d, s in upload.walk() if s.name == "gridftp:put"]
    assert len(puts) == 8
    assert [ev.fields["nbytes"] for ev in bus(sim).events(
        kind="agent.upload")] == [size // 8] * 8
    assert upload.duration < size / 85e3 / 3
    assert_staged_exactly_once(tb, stack, payload)


def test_a_single_appliance_and_a_small_payload_send_one_whole_file():
    for replicas, size in ((1, SIZE), (4, 2 * GridServiceRuntime
                                       .STRIPE_MIN_BYTES - 1)):
        sim, tb, stack, payload = deploy(replicas=replicas, size=size)
        assert sim.run(until=invoke(sim, stack)) == "tok\n"
        assert sum(uploads(stack).values()) == 1
        [event] = bus(sim).events(kind="agent.upload")
        assert event.fields["nbytes"] == size
        assert_staged_exactly_once(tb, stack, payload)


def test_the_faithful_fabric_never_stripes():
    sim = Simulator(seed=0)
    tb = build_testbed(sim=sim, n_sites=2, nodes_per_site=2,
                       cores_per_node=4, n_users=1)
    stack = sim.run(until=deploy_fabric(tb, OnServeConfig(), replicas=4))
    sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "echo.sh", make_payload("echo", size=SIZE),
        params_spec="token:string"))
    assert sim.run(until=invoke(sim, stack)) == "tok\n"
    assert sum(uploads(stack).values()) == 1
    assert stack.store.staged_copies() == []


# -- the failure ladder ------------------------------------------------------

def test_a_peer_crashing_under_its_range_hands_it_back_to_the_leader():
    sim, tb, stack, payload = deploy(self_healing=True)
    leader, peers = leader_and_peers(stack)
    victim = peers[0]
    killed = []
    when_all_ranges_are_in_flight(
        sim, tb, 4, lambda: killed.append(stack.crash_replica(victim)))
    assert sim.run(until=invoke(sim, stack)) == "tok\n"
    assert killed == [1]  # the stripe the router hosted on the victim
    [failed] = bus(sim).events(kind="core.stripe_failed")
    assert (failed.fields["replica"], failed.fields["error"]) == \
        (victim, "ReplicaDown")
    # The leader sent its own range and the victim's.
    assert uploads(stack)[leader] == 2
    sim.run(until=sim.timeout(30.0))  # the victim's orphaned PUT lands too
    assert_staged_exactly_once(tb, stack, payload)
    stack.stop_self_healing()


def test_aborted_stripes_are_sent_again_and_the_file_appears_once_whole():
    sim, tb, stack, payload = deploy()
    leader, _peers = leader_and_peers(stack)
    fault_plane(sim).add(FaultSpec("gridftp.abort", max_fires=2))
    seen = []
    bus(sim).subscribe(
        lambda ev: seen.append(any(s.has_file(PATH) for s in tb.sites)),
        kinds=("gridftp.put",))
    assert sim.run(until=invoke(sim, stack)) == "tok\n"
    handed_back = len(bus(sim).events(kind="core.stripe_failed"))
    retried = len([ev for ev in bus(sim).events(kind="retry.attempt")
                   if ev.fields["label"].startswith("upload:")])
    assert handed_back >= 1 and handed_back + retried == 2
    assert uploads(stack)[leader] == 1 + handed_back
    # Four ranges landed; the file showed only with the last of them.
    assert seen == [False, False, False, True]
    assert_staged_exactly_once(tb, stack, payload)


def test_with_every_peers_breaker_open_the_leader_sends_the_whole_file():
    sim, tb, stack, payload = deploy()
    leader, peers = leader_and_peers(stack)
    board = stack.router.breakers
    for name in peers:
        while board.states().get(name) != OPEN:
            board.failure(name)
    assert stack.router.peers(leader) == []
    assert sim.run(until=invoke(sim, stack)) == "tok\n"
    assert uploads(stack) == {name: int(name == leader)
                              for name in [leader] + peers}
    assert_staged_exactly_once(tb, stack, payload)


def test_a_site_outage_refuses_every_range_and_the_stage_fails_over():
    sim, tb, stack, payload = deploy()
    first = tb.mds.query(min_free_cores=0)[0].name
    fault_plane(sim).add(FaultSpec("site.outage", target=first,
                                   window=(0.0, 1e9)))
    assert sim.run(until=invoke(sim, stack)) == "tok\n"
    assert len(bus(sim).events(kind="core.stripe_failed")) == 3
    assert assert_staged_exactly_once(tb, stack, payload) != first
    assert not tb.site(first).has_file(PATH)


def test_a_site_failover_writes_the_job_description_once(monkeypatch):
    """The RSL depends on neither the site nor the bytes: a job lost on
    the first site fails over, and the second submit reuses the CPU the
    first one paid for."""
    sim, tb, stack, _payload = deploy()
    charged = []
    for onserve in stack.onserves:
        def compute(cpu_seconds, _compute=onserve.host.compute):
            charged.append(cpu_seconds)
            return _compute(cpu_seconds)
        monkeypatch.setattr(onserve.host, "compute", compute)
    fault_plane(sim).add(FaultSpec("gram.lost_job", max_fires=1))
    assert sim.run(until=invoke(sim, stack)) == "tok\n"
    [failover] = bus(sim).events(kind="core.failover")
    assert failover.fields["error"] == "JobNotFound"
    assert sum(gk.submissions for gk in tb.gatekeepers.values()) == 2
    assert charged.count(GridServiceRuntime.SUBMIT_CPU) == 1


@pytest.mark.parametrize("newer_after, refused", [
    ("the first range landed", 3), ("every range was commanded", 4)])
def test_a_stage_whose_ranges_the_site_refuses_fails_over_sending_none_again(
        monkeypatch, newer_after, refused):
    """A newer PUT of the path is commanded at the site once the stage's
    first range landed there (that range goes with the command) or once
    all four ranges were commanded; the site refuses every range that
    lands after it.  Sending one again could not make the file whole, so
    the stage neither retries a range nor hands one back to the leader:
    it fails over, and no row names bytes the site never took."""
    sim, tb, stack, payload = deploy()
    digest = hashlib.sha256(payload).hexdigest()
    commands, fired = [], []
    begin_put, store_file = GridSite.begin_put, GridSite.store_file

    def newer(site, path):
        if not fired:
            fired.append(site.name)
            site.begin_put(path, "newer")

    def record_command(site, path, transfer=None):
        commands.append((site.name, transfer))
        begin_put(site, path, transfer)
        if (newer_after == "every range was commanded"
                and commands.count((site.name, digest)) == 4):
            newer(site, path)

    def land(site, path, data, *where):
        store_file(site, path, data, *where)
        if newer_after == "the first range landed" and where[2:] == (digest,):
            newer(site, path)

    monkeypatch.setattr(GridSite, "begin_put", record_command)
    monkeypatch.setattr(GridSite, "store_file", land)
    assert sim.run(until=invoke(sim, stack)) == "tok\n"
    [first] = fired
    assert commands.count((first, digest)) == 4
    assert tb.site(first).refused_ranges == refused
    assert [ev for ev in bus(sim).events(kind="retry.attempt")
            if ev.fields["label"].startswith("upload:")] == []
    [failover] = bus(sim).events(kind="core.failover")
    assert (failover.fields["from_site"], failover.fields["error"]) == \
        (first, "TransferSuperseded")
    assert assert_staged_exactly_once(tb, stack, payload) != first


def test_a_leader_killed_mid_transfer_is_restaged_by_the_failover():
    sim, tb, stack, payload = deploy(self_healing=True)
    stack.router.fault_threshold = 1
    leader, _peers = leader_and_peers(stack)
    if leader == stack.onserves[0].replica:
        pytest.skip("ring owner is the primary (the DB tier) under this seed")
    when_all_ranges_are_in_flight(sim, tb, 4,
                                  lambda: stack.crash_replica(leader))
    assert sim.run(until=invoke(sim, stack)) == "tok\n"
    assert stack.router.failovers == 1
    assert stack.store.dedup_duplicates == 0
    # The survivor staged the same path again, ranges and all.
    assert sum(uploads(stack).values()) > 4
    sim.run(until=sim.timeout(30.0))
    assert_staged_exactly_once(tb, stack, payload)
    stack.stop_self_healing()
