"""Stage by content, once (``OnServeConfig.stage_once``, DESIGN.md §10).

Under the data-path plane the runtime's staging step trusts the store's
``staged_copies`` rows: a site already holding the digest an invocation
loaded is not uploaded to again, a site that lacks it is fed head node
to head node from one that has it, and a row whose file turns out to be
gone is dropped.  With the predicate off nothing reads or writes the
table.
"""

import hashlib

import pytest

from repro.core.fabric import deploy_fabric
from repro.core.grid_service import GridServiceRuntime
from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig
from repro.cyberaide.agent import CyberaideAgent
from repro.cyberaide.jobspec import staged_path_for
from repro.faults.spec import FaultSpec
from repro.grid.testbed import build_testbed
from repro.simkernel import Simulator
from repro.telemetry.events import bus
from repro.units import KB
from repro.workloads.executables import make_payload

SITES = ("ncsa", "sdsc")  # build_testbed(n_sites=2), by name


def deploy(replicas=1, n_users=2, **config):
    """A 2-site testbed; round robin so sequential invokes on an idle
    grid alternate sites ("best" would keep them all on one)."""
    sim = Simulator(seed=0)
    tb = build_testbed(sim=sim, n_sites=2, nodes_per_site=2,
                       cores_per_node=4, n_users=n_users)
    config.setdefault("site_policy", "round_robin")
    stack = sim.run(until=deploy_fabric(tb, OnServeConfig(**config),
                                        replicas=replicas))
    return sim, tb, stack


def publish(sim, tb, stack, name, payload, params=""):
    return sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], name, payload, params_spec=params))


def invoke(sim, stack, pattern, client=0, **params):
    return sim.run(until=discover_and_invoke(
        stack, stack.user_clients[client], pattern, **params))


def counts(stack):
    """(grid uploads, site-to-site copies) over every replica's agent."""
    agents = [o.agent for o in stack.onserves]
    return (sum(a.uploads for a in agents),
            sum(a.replications for a in agents))


def staged_events(sim):
    """The staged-copy lookups as ("hit" | "miss", "site:path") pairs."""
    return [(ev.kind.split(".")[1], ev.fields["key"])
            for ev in bus(sim).events()
            if ev.kind in ("cache.hit", "cache.miss")
            and ev.fields.get("cache") == "staged"]


def rows_match_files(tb, stack):
    """Every ``staged_copies`` row names the bytes its site holds."""
    rows = stack.store.staged_copies()
    return bool(rows) and all(
        hashlib.sha256(tb.site(site).read_file(path)).hexdigest() == digest
        for site, path, digest in rows)


def wordcount(text):
    return make_payload("wordcount", size=int(KB(48)), text=text)


# -- (a) one upload, one copy per further site, on a routed fabric ----------

def test_fabric_uploads_once_and_replicates_to_each_further_site():
    sim, tb, stack = deploy(replicas=2, coalesce=True, datapath=True,
                            notify=True)
    size = int(KB(48))
    publish(sim, tb, stack, "echo.sh", make_payload("echo", size=size),
            params="token:string")
    path = staged_path_for("echo.sh")
    k = 6
    for i in range(k):
        token = f"tok-{i}"
        assert invoke(sim, stack, "Echo%", client=i % 2,
                      token=token) == token + "\n"
    # One stage over the uplinks — a range per replica, each worth its
    # own — and one site-to-site copy per further site.
    ranges = min(2, size // GridServiceRuntime.STRIPE_MIN_BYTES)
    once = (ranges, len(SITES) - 1)
    assert counts(stack) == once
    events = staged_events(sim)
    assert [kind for kind, _ in events] == ["miss", "miss"] + ["hit"] * (k - 2)
    assert {key for _, key in events} == {f"{s}:{path}" for s in SITES}
    assert [s for s, _p, _d in stack.store.staged_copies()] == list(SITES)
    assert rows_match_files(tb, stack)
    # A copy staged through one replica is on the site for every
    # replica: the one the ring never picked, addressed directly, hits.
    [idle] = [o for o in stack.onserves if not o.agent.submissions]
    sim.run(until=sim.process(idle.ensure_local_service("EchoService")))
    assert sim.run(until=stack.user_clients[0].call(
        f"soap://{idle.replica}/EchoService", "execute",
        token="direct")) == "direct\n"
    assert idle.agent.submissions == 1
    assert counts(stack) == once
    assert staged_events(sim)[-1][0] == "hit"


# -- (b) republish: evict, then stage the new bytes -------------------------

def test_republish_evicts_and_every_site_then_runs_the_new_bytes():
    sim, tb, stack = deploy(datapath=True, notify=True)
    publish(sim, tb, stack, "count.sh", wordcount("old old"))
    assert [invoke(sim, stack, "Count%") for _ in SITES] == ["old 2\n"] * 2
    assert counts(stack) == (1, 1)
    old_rows = stack.store.staged_copies()

    publish(sim, tb, stack, "count.sh", wordcount("new"))
    assert stack.store.staged_copies() == []
    assert [invoke(sim, stack, "Count%") for _ in SITES] == ["new 1\n"] * 2
    # New bytes went up once and were copied across once.
    assert counts(stack) == (2, 2)
    new_rows = stack.store.staged_copies()
    assert [r[:2] for r in new_rows] == [r[:2] for r in old_rows]
    assert {r[2] for r in new_rows}.isdisjoint({r[2] for r in old_rows})
    assert rows_match_files(tb, stack)


# -- (c) source site down: fall back to the uplink --------------------------

def test_replication_from_a_site_in_outage_falls_back_to_the_upload():
    sim, tb, stack = deploy(datapath=True, notify=True)
    publish(sim, tb, stack, "echo.sh", make_payload("echo", size=int(KB(48))),
            params="token:string")
    assert invoke(sim, stack, "Echo%", token="one") == "one\n"
    [(holder, _path, _digest)] = stack.store.staged_copies()
    breakers_before = stack.onserve.breakers.states()
    tb.install_faults([FaultSpec("site.outage", target=holder,
                                 window=(sim.now, sim.now + 600.0))])
    assert invoke(sim, stack, "Echo%", token="two") == "two\n"
    # The copy was refused (source unreachable), the upload went
    # through, and the refusal is charged to nobody's breaker.
    assert counts(stack) == (2, 0)
    assert [s for s, _p, _d in stack.store.staged_copies()] == list(SITES)
    other = next(s for s in SITES if s != holder)
    assert stack.onserve.breakers.states() == {**breakers_before,
                                               other: "closed"}
    assert bus(sim).counts().get("breaker.transition", 0) == 0
    assert bus(sim).counts().get("core.failover", 0) == 0


def test_an_open_breaker_disqualifies_a_replication_source():
    sim, tb, stack = deploy(datapath=True, notify=True)
    publish(sim, tb, stack, "echo.sh", make_payload("echo", size=int(KB(48))),
            params="token:string")
    assert invoke(sim, stack, "Echo%", token="one") == "one\n"
    [(holder, _path, _digest)] = stack.store.staged_copies()
    for _ in range(stack.onserve.config.breaker_failure_threshold):
        stack.onserve.breakers.failure(holder)
    assert invoke(sim, stack, "Echo%", token="two") == "two\n"
    assert counts(stack) == (2, 0)


# -- (d) republish racing a replication -------------------------------------

def test_republish_racing_a_replication_never_mislabels_the_destination(
        monkeypatch):
    sim, tb, stack = deploy(datapath=True, notify=True)
    path = staged_path_for("count.sh")
    publish(sim, tb, stack, "count.sh", wordcount("old old"))
    assert invoke(sim, stack, "Count%") == "old 2\n"
    [(holder, _path, old_digest)] = stack.store.staged_copies()
    new = wordcount("new")
    copy = CyberaideAgent._op_replicateExecutable

    def copy_after_a_republish(agent, **kw):
        # The invocation has loaded the old bytes and picked *holder*
        # as its source.  Before a byte is copied, the service is
        # republished and another invocation stages the new bytes on
        # *holder* — so what the copy moves is not what was asked for.
        yield stack.portal.upload_and_generate(tb.user_hosts[0], "count.sh",
                                               new)
        tb.site(holder).store_file(path, new)
        stack.onserve.mark_staged(holder, path,
                                  hashlib.sha256(new).hexdigest())
        return (yield from copy(agent, **kw))

    monkeypatch.setattr(CyberaideAgent, "_op_replicateExecutable",
                        copy_after_a_republish)
    # The racing invocation runs what it loaded ...
    assert invoke(sim, stack, "Count%") == "old 2\n"
    # ... because it uploaded those bytes itself after the copy, and the
    # destination's row says exactly what the destination holds.
    assert counts(stack) == (2, 1)
    rows = dict((site, digest)
                for site, _p, digest in stack.store.staged_copies())
    other = next(s for s in SITES if s != holder)
    assert rows[holder] != old_digest and rows[other] == old_digest
    assert rows_match_files(tb, stack)
    monkeypatch.undo()
    assert [invoke(sim, stack, "Count%") for _ in SITES] == ["new 1\n"] * 2
    assert rows_match_files(tb, stack)


# -- (e) predicate off: the table is neither read nor written ---------------

@pytest.mark.parametrize("config", [{}, {"notify": True}])
def test_without_the_predicate_nothing_reads_or_writes_staged_copies(
        config, monkeypatch):
    sim, tb, stack = deploy(**config)
    assert not stack.onserve.config.stage_once
    reads = []
    lookup = stack.store.staged_digest
    monkeypatch.setattr(stack.store, "staged_digest",
                        lambda *a: reads.append(a) or lookup(*a))
    publish(sim, tb, stack, "echo.sh", make_payload("echo", size=int(KB(8))),
            params="token:string")
    assert [invoke(sim, stack, "Echo%", token="t") for _ in SITES] \
        == ["t\n"] * 2
    assert reads == []
    assert stack.store.staged_copies() == []
    assert staged_events(sim) == []
    assert counts(stack) == (2, 0)


@pytest.mark.parametrize("config, once", [
    ({}, False), ({"notify": True}, False), ({"coalesce": True}, False),
    ({"upload_cache": True}, True), ({"datapath": True}, True),
])
def test_the_predicate_is_upload_cache_or_datapath(config, once):
    assert OnServeConfig(**config).stage_once is once


# -- satellite: a stale row heals instead of failing over for ever ----------

def test_a_row_whose_file_is_gone_is_dropped_and_restaged():
    sim, tb, stack = deploy(datapath=True, notify=True, site_policy="best")
    publish(sim, tb, stack, "echo.sh", make_payload("echo", size=int(KB(48))),
            params="token:string")
    path = staged_path_for("echo.sh")
    assert invoke(sim, stack, "Echo%", token="one") == "one\n"
    [(first, _path, digest)] = stack.store.staged_copies()
    tb.site(first).delete_file(path)

    # A hit on the stale row: the job dies at stage-in, the row goes,
    # and the invocation fails over to the other site.
    assert invoke(sim, stack, "Echo%", token="two") == "two\n"
    other = next(s for s in SITES if s != first)
    assert stack.store.staged_copies() == [(other, path, digest)]
    assert counts(stack) == (2, 0)
    assert bus(sim).counts().get("core.failover") == 1

    # The idle grid's ranking still puts *first* on top: it re-stages
    # (from the other site now) instead of failing over again.
    assert invoke(sim, stack, "Echo%", token="three") == "three\n"
    assert stack.store.staged_copies() == [(first, path, digest),
                                           (other, path, digest)]
    assert counts(stack) == (2, 1)
    assert bus(sim).counts().get("core.failover") == 1
    assert rows_match_files(tb, stack)


def test_evict_staged_by_site_drops_exactly_that_row():
    sim, tb, stack = deploy()
    store = stack.store
    for site in SITES:
        store.mark_staged(site, "/p/a", "d1", "appliance")
        store.mark_staged(site, "/p/b", "d2", "appliance")
    assert store.staged_sites("/p/a", "d1") == list(SITES)
    assert store.evict_staged("/p/a", site="sdsc") == ["sdsc"]
    assert store.staged_sites("/p/a", "d1") == ["ncsa"]
    assert store.staged_sites("/p/a", "other") == []
    assert store.staged_sites("/p/b", "d2") == list(SITES)
    assert store.evict_staged("/p/a", site="sdsc") == []
    assert store.evict_staged("/p/b") == list(SITES)
