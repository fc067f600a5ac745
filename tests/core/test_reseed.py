"""Digest at publish, reseed what a republish evicted (DESIGN.md §10).

Under ``stage_once`` on a routed fabric the service row carries the
digest of the bytes it runs, so an invocation whose chosen site holds
them never touches the DB; a republish hands the new bytes to the
service's ring owner, which stages them where the old ones were; and an
invocation on any replica that finds that seed filling its site waits
for it, through the store, instead of sending the bytes a second time.
Whatever interrupts a seed — a republish, its replica crashing — the
site must end with no open transfer of the old bytes, the store with no
row of them, and every invocation with the right output.
"""

import hashlib

import pytest

from repro.core.context import RequestContext
from repro.core.fabric import deploy_fabric
from repro.core.grid_service import GridServiceRuntime
from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig
from repro.cyberaide.agent import CyberaideAgent
from repro.cyberaide.jobspec import staged_path_for
from repro.grid.site import GridSite
from repro.grid.testbed import build_testbed
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


def deploy(replicas=4, n_sites=2, **fabric):
    sim = Simulator(seed=0)
    tb = build_testbed(sim=sim, n_sites=n_sites, nodes_per_site=2,
                       cores_per_node=4, n_users=1)
    config = OnServeConfig(coalesce=True, datapath=True, notify=True,
                           db_chunk_bytes=4 * 1024 * 1024)
    stack = sim.run(until=deploy_fabric(tb, config, replicas=replicas,
                                        **fabric))
    return sim, tb, stack


def echo(token, size=SIZE):
    # Same behaviour, different bytes: the token names the version.
    return make_payload("echo", size=size, nonce=token)


def publish(sim, tb, stack, payload, name="echo.sh", params="token:string"):
    return sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], name, payload, params_spec=params))


def invoke(sim, stack, token, ctx=None):
    return sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "Echo%", ctx=ctx, token=token))


def on_replica(sim, stack, name, token):
    """Invoke EchoService on replica *name* itself, not through the
    router (which would pick the ring owner): a process."""
    onserve = stack.onserve_for(name)

    def call():
        yield from onserve.ensure_local_service("EchoService")
        return (yield from stack.user_clients[0].call(
            f"soap://{name}/EchoService", "execute", token=token))

    return sim.process(call(), name=f"test:invoke-on:{name}")


def owner(stack):
    return stack.router.ring.owner("EchoService")


def kinds(sim, prefix="core.seed"):
    return [ev.kind for ev in bus(sim).events() if ev.kind.startswith(prefix)]


def digest(payload):
    return hashlib.sha256(payload).hexdigest()


def when_ranges_are_in_flight(sim, tb, k, action):
    """Run *action* once some site has *k* data connections open."""
    def op():
        streams = [gauges(sim).gauge(f"gridftp.{s.name}.streams")
                   for s in tb.sites]
        while max(g.current for g in streams) < k:
            yield sim.timeout(0.01)
        action()
    return sim.process(op(), name="test:mid-seed")


def no_open_transfer_of(tb, old):
    return all(transfer != old for s in tb.sites for _p, transfer in s.incoming)


# -- (1) the hit rule ----------------------------------------------------------

def test_a_hit_on_the_row_digest_loads_nothing_and_writes_no_temp_copy():
    sim, tb, stack = deploy()
    payload = echo("v1")
    publish(sim, tb, stack, payload)
    assert stack.store.get_record("EchoService")["digest"] == digest(payload)
    assert invoke(sim, stack, "one") == "one\n"  # the miss stages
    fetches = len(bus(sim).events(kind="db.fetch"))
    logs = {o.replica: len(o.host.disk.op_log) for o in stack.onserves}
    ctx = RequestContext.create(sim)
    assert invoke(sim, stack, "two", ctx=ctx) == "two\n"
    # No DB load, no temp copy: the only disk write is the output's.
    assert len(bus(sim).events(kind="db.fetch")) == fetches
    writes = [nbytes for o in stack.onserves
              for _t, way, nbytes in o.host.disk.op_log[logs[o.replica]:]
              if way == "write"]
    assert writes == [len("two\n")]
    assert ctx.root.find("service:retrieval") is None
    assert ctx.root.find("db:fetch") is None
    assert ctx.root.find("service:upload") is not None
    [report] = [rt.last_report for o in stack.onserves
                for rt in o.runtimes.values()
                if rt.last_report is not None
                and rt.last_report.started_at >= ctx.root.start]
    assert report.retrieval == 0.0 and report.ok


def test_a_republish_between_listing_and_hit_check_never_runs_old_bytes(
        monkeypatch):
    sim, tb, stack = deploy()
    old, new = (make_payload("wordcount", size=int(KB(48)), text=t)
                for t in ("old old", "new"))
    publish(sim, tb, stack, old, name="count.sh", params="")
    assert sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "Count%")) == "old 2\n"
    listing = CyberaideAgent._op_listSites
    republished = []

    def list_then_republish(agent, ctx=None):
        sites = yield from listing(agent, ctx=ctx)
        if not republished:
            # The listing is answered; before the invocation reads the
            # row, the new bytes are committed.
            republished.append(True)
            yield stack.portal.upload_and_generate(tb.user_hosts[0],
                                                   "count.sh", new)
        return sites

    monkeypatch.setattr(CyberaideAgent, "_op_listSites", list_then_republish)
    assert sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "Count%")) == "new 1\n"
    assert republished
    sim.run(until=sim.timeout(60.0))
    # Every row names the new bytes, and each site holds what its row says.
    rows = stack.store.staged_copies()
    assert rows and {d for _s, _p, d in rows} == {digest(new)}
    assert all(tb.site(site).read_file(path) == new
               for site, path, _d in rows)


def test_a_service_restored_over_recovered_data_keeps_its_digest():
    sim, tb, stack = deploy()
    payload = echo("v1")
    publish(sim, tb, stack, payload)
    recovered = stack.dbmanager.recover_from_crash()
    again = sim.run(until=deploy_fabric(tb, stack.onserve.config,
                                        replicas=4, dbmanager=recovered))
    assert "EchoService" in again.onserve.services
    # The rebuilt row names the bytes, or no invocation could hit.
    assert again.store.get_record("EchoService")["digest"] == digest(payload)


# -- (2) reseed exactly what was evicted -------------------------------------

def test_a_reseed_targets_exactly_the_evicted_sites():
    sim, tb, stack = deploy(n_sites=3)
    v1 = echo("v1")
    publish(sim, tb, stack, v1)
    assert kinds(sim) == []  # a first publish seeds nothing
    assert invoke(sim, stack, "one") == "one\n"
    [(held, _p, _d)] = stack.store.staged_copies()
    # A copy of v1 on a second site, too.
    other = next(s.name for s in tb.sites if s.name != held)
    stack.onserve.mark_staged(other, PATH, digest(v1))
    tb.site(other).store_file(PATH, v1)
    evicted = sorted([held, other])

    v2 = echo("v2")
    publish(sim, tb, stack, v2)
    sim.run(until=sim.timeout(60.0))
    started = bus(sim).events(kind="core.seed_started")
    assert [ev.fields["replica"] for ev in started] == [owner(stack)]
    landed = sorted(ev.fields["site"]
                    for ev in bus(sim).events(kind="core.seed_landed"))
    assert landed == evicted
    assert stack.store.staged_copies() == [(site, PATH, digest(v2))
                                           for site in evicted]
    assert all(tb.site(s).read_file(PATH) == v2 for s in evicted)
    third = next(s for s in tb.sites if s.name not in evicted)
    assert not third.has_file(PATH)
    # The best-ranked site went up over the uplinks, the other was fed
    # site to site.
    assert sum(o.agent.replications for o in stack.onserves) == 1
    assert stack.store.seed_flight(PATH) is None


def test_a_first_publish_and_a_republish_of_an_unstaged_service_seed_nothing():
    sim, tb, stack = deploy()
    publish(sim, tb, stack, echo("v1"))
    publish(sim, tb, stack, echo("v2"))
    sim.run(until=sim.timeout(30.0))
    assert kinds(sim) == []
    assert sum(o.agent.uploads for o in stack.onserves) == 0


# -- (3) join the seed from any replica ---------------------------------------

def test_an_invoke_on_a_non_owner_replica_joins_the_seed_and_one_copy_goes_up():
    sim, tb, stack = deploy()
    publish(sim, tb, stack, echo("v1"))
    assert invoke(sim, stack, "one") == "one\n"
    links = [tb.network.route(o.host.name, "wan-core")[0].server
             for o in stack.onserves]
    before = sum(link.work_integral() for link in links)
    uploads = len(bus(sim).events(kind="agent.upload"))

    publish(sim, tb, stack, echo("v2"))
    guest = next(o.replica for o in stack.onserves
                 if o.replica != owner(stack))
    assert sim.run(until=on_replica(sim, stack, guest, "two")) == "two\n"
    [joined] = bus(sim).events(kind="core.seed_joined")
    assert (joined.fields["replica"], joined.fields["origin"]) == \
        (guest, owner(stack))
    # The payload crossed the uplinks once: the seed's four ranges.
    put = bus(sim).events(kind="agent.upload")[uploads:]
    assert sum(ev.fields["nbytes"] for ev in put) == SIZE
    assert sum(link.work_integral() for link in links) - before \
        < SIZE + 32 * 1024


def test_the_joined_wait_reads_as_grid_transfer():
    sim, tb, stack = deploy()
    publish(sim, tb, stack, echo("v1"))
    assert invoke(sim, stack, "one") == "one\n"
    publish(sim, tb, stack, echo("v2"))
    ctx = RequestContext.create(sim)
    assert invoke(sim, stack, "two", ctx=ctx) == "two\n"
    wait = ctx.root.find("service:seed-join")
    assert wait is not None and wait.duration > 0.5
    # The seed's own staging spans hang under the wait ...
    puts = [s for _d, s in wait.walk() if s.name == "gridftp:put"]
    assert len(puts) == 4
    # ... so the analyzer charges the wait to the transfer it waited on.
    att = analyze_request(ctx)
    assert att.reconciles(tol=1e-9)
    assert att.buckets["grid/transfer"] > 0.8 * wait.duration


def test_the_job_description_is_written_under_the_seed_join():
    sim, tb, stack = deploy()
    publish(sim, tb, stack, echo("v1"))
    assert invoke(sim, stack, "one") == "one\n"
    publish(sim, tb, stack, echo("v2"))
    ctx = RequestContext.create(sim)
    assert invoke(sim, stack, "two", ctx=ctx) == "two\n"
    wait = ctx.root.find("service:seed-join")
    assert wait.duration > GridServiceRuntime.SUBMIT_CPU
    # The RSL's CPU ran while the bytes travelled: what is left of the
    # submit step is the exchange with the gatekeeper.
    submit = ctx.root.find("service:submit")
    [exchange] = [s for _d, s in submit.walk()
                  if s.name.endswith(".submitJob")
                  and s.name.startswith("client:")]
    assert submit.duration <= exchange.duration + 1e-9


# -- (4) cancel and crash -------------------------------------------------------

def test_a_republish_mid_seed_cancels_it_and_leaves_nothing_of_the_old_bytes():
    sim, tb, stack = deploy()
    publish(sim, tb, stack, echo("v1"))
    assert invoke(sim, stack, "one") == "one\n"
    v2, v3 = echo("v2"), echo("v3")
    publish(sim, tb, stack, v2)
    when_ranges_are_in_flight(sim, tb, 4, lambda: stack.portal
                              .upload_and_generate(tb.user_hosts[0],
                                                   "echo.sh", v3,
                                                   params_spec="token:string"))
    sim.run(until=sim.timeout(60.0))
    [cancelled] = bus(sim).events(kind="core.seed_cancelled")
    assert cancelled.fields["reason"] == "republished"
    assert bus(sim).events(kind="core.seed_landed") == []
    assert no_open_transfer_of(tb, digest(v2))
    assert all(d != digest(v2) for _s, _p, d in stack.store.staged_copies())
    assert stack.store.seed_flight(PATH) is None
    assert invoke(sim, stack, "three") == "three\n"
    [(site, _p, d)] = stack.store.staged_copies()
    assert d == digest(v3) and tb.site(site).read_file(PATH) == v3
    assert all(s.incoming == {} for s in tb.sites)


def test_a_republish_during_the_seeds_site_to_site_copy_never_runs_old_bytes(
        monkeypatch):
    """Three sites hold v1.  v2's seed has staged the first and is
    copying to the second when v3 is published — its copy already
    commanded — and an invocation stages v3 on that second site.  The
    cancelled seed sends nothing more up and records nothing; the copy
    it had commanded lands after the invocation's PUT was commanded, so
    the site refuses the invocation's ranges, which fails over instead
    of recording bytes the site never took; and every row left names
    what its site holds."""
    sim, tb, stack = deploy(n_sites=3)
    v1, v2, v3 = (make_payload("wordcount", size=SIZE, text=text)
                  for text in ("one", "two two", "three three three"))
    publish(sim, tb, stack, v1)
    assert invoke(sim, stack, "x") == "one 1\n"
    for site in tb.sites:
        if not site.has_file(PATH):
            stack.onserve.mark_staged(site.name, PATH, digest(v1))
            site.store_file(PATH, v1)
    guest = next(o.replica for o in stack.onserves
                 if o.replica != owner(stack))
    breakers = stack.onserve_for(guest).breakers
    threshold = stack.onserve.config.breaker_failure_threshold
    commands = []
    begin_put = GridSite.begin_put

    def record_command(site, path, transfer=None):
        commands.append((site.name, transfer))
        return begin_put(site, path, transfer)

    monkeypatch.setattr(GridSite, "begin_put", record_command)
    copy = CyberaideAgent._op_replicateExecutable
    waiters = []

    def copy_after_a_republish(agent, **kw):
        if not waiters:
            first = bus(sim).events(kind="core.seed_started")[0]
            a, b = first.fields["site"], kw["toSite"]
            [c] = [s.name for s in tb.sites if s.name not in (a, b)]
            yield stack.portal.upload_and_generate(
                tb.user_hosts[0], "echo.sh", v3, params_spec="token:string")
            # The guest stages v3 on b: a and c are closed to it ...
            for site in (a, c):
                for _ in range(threshold):
                    breakers.failure(site)
            waiters.append(on_replica(sim, stack, guest, "y"))
            while (b, digest(v3)) not in commands:
                yield sim.timeout(0.01)
            breakers.reset(c)  # ... and c is open for its failover
        return (yield from copy(agent, **kw))

    monkeypatch.setattr(CyberaideAgent, "_op_replicateExecutable",
                        copy_after_a_republish)
    publish(sim, tb, stack, v2)
    sim.run(until=sim.timeout(20.0))
    [waiter] = waiters
    assert sim.run(until=waiter) == "three 3\n"
    sim.run(until=sim.timeout(60.0))
    cancelled = [ev.fields["reason"]
                 for ev in bus(sim).events(kind="core.seed_cancelled")]
    assert cancelled == ["republished"]
    b = bus(sim).events(kind="agent.replicate")[0].fields["dest"]
    # The seed commanded v2 at b once — the copy — and never sent it up.
    assert commands.count((b, digest(v2))) == 1
    assert tb.site(b).refused_ranges >= 1
    assert len(bus(sim).events(kind="core.failover")) == 1
    rows = stack.store.staged_copies()
    assert {d for _s, _p, d in rows} == {digest(v3)}
    assert all(tb.site(s).read_file(p) == v3 for s, p, _d in rows)
    assert stack.store.seed_flight(PATH) is None
    assert stack.store.dedup_duplicates == 0


def test_crashing_the_seeding_replica_makes_its_waiters_stage_for_themselves():
    sim, tb, stack = deploy(self_healing=True)
    publish(sim, tb, stack, echo("v1"))
    assert invoke(sim, stack, "one") == "one\n"
    v2 = echo("v2")
    publish(sim, tb, stack, v2)
    seeder = owner(stack)
    guest = next(o.replica for o in stack.onserves if o.replica != seeder)
    waiter = on_replica(sim, stack, guest, "two")
    killed = []
    when_ranges_are_in_flight(
        sim, tb, 4, lambda: killed.append(stack.crash_replica(seeder)))
    assert sim.run(until=waiter) == "two\n"
    assert killed and killed[0] >= 1
    assert [ev.fields["reason"] for ev in
            bus(sim).events(kind="core.seed_cancelled")] == ["ReplicaDown"]
    assert bus(sim).events(kind="core.seed_landed") == []
    assert len(bus(sim).events(kind="core.seed_joined")) == 1
    # The waiter staged the bytes itself, and they are the new ones.
    assert stack.onserve_for(guest).agent.uploads >= 1
    sim.run(until=sim.timeout(60.0))
    [(site, _p, d)] = stack.store.staged_copies()
    assert d == digest(v2) and tb.site(site).read_file(PATH) == v2
    assert stack.store.dedup_duplicates == 0
    assert stack.store.seed_flight(PATH) is None
    stack.stop_self_healing()


# -- (5) the faithful path: no seed, no reordering -------------------------------

@pytest.mark.parametrize("replicas, config", [
    (1, {}), (4, {}), (1, {"upload_cache": True}),
    (1, {"coalesce": True, "datapath": True, "notify": True}),
])
def test_without_a_routed_stage_once_nothing_seeds_and_the_db_loads_first(
        replicas, config):
    sim = Simulator(seed=0)
    tb = build_testbed(sim=sim, n_sites=2, nodes_per_site=2,
                       cores_per_node=4, n_users=1)
    stack = sim.run(until=deploy_fabric(tb, OnServeConfig(**config),
                                        replicas=replicas))
    assert not stack.onserve.stages_at_publish
    payload = echo("v1", size=int(KB(48)))
    publish(sim, tb, stack, payload)
    for token in ("one", "two"):
        publish(sim, tb, stack, echo(token, size=int(KB(48))))
        ctx = RequestContext.create(sim)
        assert invoke(sim, stack, token, ctx=ctx) == token + "\n"
        order = [s.name for _d, s in ctx.root.walk()
                 if s.name in ("service:retrieval", "service:auth",
                               "service:upload")]
        assert order == ["service:retrieval", "service:auth",
                         "service:upload"]
    assert kinds(sim) == []
    assert stack.store.get_record("EchoService")["digest"] == ""
    assert stack.store.seed_flight(PATH) is None
