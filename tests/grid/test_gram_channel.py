"""GRAM submits on a pooled channel: reuse, and the rules it must keep.

The gatekeeper's submits ride the same :class:`GsiChannel` the GridFTP
transfers do.  What a channel saves is the GSI handshake on the wire;
what it must not save is authorization — ``acceptor.accept`` runs on
every submit — and it must close on any failure, die with its
credential and re-handshake after its idle timeout.
"""

import pytest

from repro.errors import CertificateInvalid, CredentialExpired, \
    RslError, SubmissionRefused
from repro.faults import FaultSpec, fault_plane
from repro.grid import build_testbed
from repro.grid.channel import GsiChannel, GsiChannelPool
from repro.grid.rsl import JobDescription, generate_rsl
from repro.simkernel import Simulator
from repro.telemetry.events import bus
from repro.units import Mbps

SITE = "ncsa"


def quick_testbed(**kw):
    kw.setdefault("n_sites", 2)
    kw.setdefault("nodes_per_site", 2)
    kw.setdefault("cores_per_node", 4)
    kw.setdefault("appliance_uplink", Mbps(10))
    return build_testbed(**kw)


def logon(tb, username="ada", passphrase="pw", lifetime=3600.0,
          enrol=True):
    if enrol:
        tb.new_grid_identity(username, passphrase)
    client = tb.appliance_host

    def flow():
        key, proxy, ee = yield tb.myproxy.logon(client, username, passphrase,
                                                lifetime=lifetime)
        return [proxy, ee]

    return tb.sim.run(until=tb.sim.process(flow())), client


def rsl(i=0):
    return generate_rsl(JobDescription(executable="/scratch/none.bin",
                                       arguments=[str(i)],
                                       stdout=f"/scratch/out{i}.txt"))


def submit(tb, pool, client, chain, i=0):
    """One submit through *pool*; its job id (the job itself fails:
    nothing is staged, which a submit does not care about)."""
    return tb.sim.run(until=tb.sim.process(
        pool.submit(tb.gatekeepers[SITE], client, chain, rsl(i))))


def pooled_env(**pool_kw):
    tb = quick_testbed()
    chain, client = logon(tb)
    pool = GsiChannelPool(tb.sim, enabled=True, **pool_kw)
    return tb, chain, client, pool, tb.gatekeepers[SITE]


# ----------------------------------------------------------------- reuse

def test_pooled_submits_handshake_once_and_send_one_message_each():
    tb, chain, client, pool, gram = pooled_env()
    submit(tb, pool, client, chain, 0)
    before = (tb.sim.events_processed, gram.control_bytes)
    submit(tb, pool, client, chain, 1)
    pooled_events = tb.sim.events_processed - before[0]
    pooled_bytes = gram.control_bytes - before[1]
    assert (gram.handshakes, gram.pooled_ops, gram.submissions) == (1, 1, 2)
    assert gram.exchanges == 2
    channel = pool.channel(gram, client, chain)
    assert (channel.handshakes, channel.ops, channel.open) == (1, 2, True)
    assert bus(tb.sim).counts()["gram.session_open"] == 1
    # The open channel replaced the handshake by the pipelined-op bytes,
    # on the request's own message: no extra round trip.
    request = gram.SUBMIT_OVERHEAD_BYTES + len(rsl(1)) + 512
    assert pooled_bytes == GsiChannel.SESSION_OP_BYTES + request

    per_op = quick_testbed()
    per_chain, per_client = logon(per_op)
    submit(per_op, GsiChannelPool(per_op.sim), per_client, per_chain, 0)
    mark = per_op.sim.events_processed
    submit(per_op, GsiChannelPool(per_op.sim), per_client, per_chain, 1)
    assert per_op.sim.events_processed - mark == pooled_events
    assert per_op.gatekeepers[SITE].handshakes == 2


def test_disabled_pool_submit_is_the_per_operation_submit():
    runs = []
    for via_pool in (False, True):
        tb = quick_testbed(sim=Simulator(seed=7))
        chain, client = logon(tb)
        gram = tb.gatekeepers[SITE]
        before = tb.sim.events_processed
        tb.sim.run(until=tb.sim.process(
            GsiChannelPool(tb.sim).submit(gram, client, chain, rsl())
            if via_pool else gram.submit(client, chain, rsl())))
        runs.append((tb.sim.now, tb.sim.events_processed - before,
                     gram.control_bytes, gram.exchanges, gram.handshakes,
                     [(e.kind, sorted(e.fields.items()))
                      for e in bus(tb.sim).events()]))
    assert runs[0] == runs[1]
    assert runs[0][4] == 1


def test_every_pooled_submit_is_authorized():
    tb, chain, client, pool, gram = pooled_env()
    acceptor = tb.site(SITE).acceptor
    before = acceptor.handshakes_ok
    for i in range(3):
        submit(tb, pool, client, chain, i)
    assert acceptor.handshakes_ok - before == 3
    assert gram.handshakes == 1


def test_concurrent_first_submits_pay_one_handshake():
    tb, chain, client, pool, gram = pooled_env()
    procs = [tb.sim.process(pool.submit(gram, client, chain, rsl(i)))
             for i in range(5)]
    ids = tb.sim.run(until=tb.sim.all_of(procs))
    assert len(set(ids.values())) == 5
    assert (gram.handshakes, gram.pooled_ops) == (1, 4)
    assert bus(tb.sim).counts()["gram.session_open"] == 1
    assert pool.channel(gram, client, chain).ops == 5


def test_idle_channel_pays_the_handshake_again():
    tb, chain, client, pool, gram = pooled_env(idle_timeout=60.0)
    submit(tb, pool, client, chain, 0)
    tb.sim.run(until=tb.sim.timeout(30.0))
    submit(tb, pool, client, chain, 1)  # inside the timeout: reused
    tb.sim.run(until=tb.sim.timeout(61.0))
    assert not pool.channel(gram, client, chain).open
    submit(tb, pool, client, chain, 2)
    assert (gram.handshakes, gram.pooled_ops) == (2, 1)
    assert bus(tb.sim).counts()["gram.session_open"] == 2


def test_fresh_delegation_replaces_the_channel():
    tb, chain, client, pool, gram = pooled_env()
    submit(tb, pool, client, chain, 0)
    first = pool.channel(gram, client, chain)
    chain2, _ = logon(tb, enrol=False)  # re-logon: a new proxy
    submit(tb, pool, client, chain2, 1)
    second = pool.channel(gram, client, chain2)
    assert second is not first and not first.open and second.open
    assert (gram.handshakes, gram.pooled_ops) == (2, 0)


# ---------------------------------------- refusals close the channel

def _per_op_error(setup):
    """What the same refusal raises on a fresh per-operation submit."""
    tb = quick_testbed()
    chain, client = logon(tb, lifetime=100.0)
    setup(tb, chain)
    with pytest.raises(Exception) as info:
        tb.sim.run(until=tb.sim.process(
            tb.gatekeepers[SITE].submit(client, chain, rsl())))
    return type(info.value)


def _pooled_refusal(setup):
    """Open a channel, apply *setup*, submit again: the exception type,
    the channel's state and the gatekeeper afterwards."""
    tb = quick_testbed()
    chain, client = logon(tb, lifetime=100.0)
    pool = GsiChannelPool(tb.sim, enabled=True)
    gram = tb.gatekeepers[SITE]
    submit(tb, pool, client, chain, 0)
    assert pool.open_channels == 1
    setup(tb, chain)
    with pytest.raises(Exception) as info:
        submit(tb, pool, client, chain, 1)
    return type(info.value), pool, gram


def revoke(tb, chain):
    tb.ca.revoke(chain[-1])
    tb.site(SITE).acceptor.update_crl(tb.ca)


def expire(tb, chain):
    tb.sim.run(until=tb.sim.timeout(200.0))  # past the proxy's 100 s


def refuse(tb, chain):
    fault_plane(tb.sim).add(FaultSpec("gram.refuse", target=SITE))


def outage(tb, chain):
    fault_plane(tb.sim).add(FaultSpec(
        "site.outage", target=SITE, window=(tb.sim.now, tb.sim.now + 1e6)))


@pytest.mark.parametrize("setup,error", [
    (revoke, CertificateInvalid),
    (expire, CredentialExpired),
    (refuse, SubmissionRefused),
    (outage, SubmissionRefused),
], ids=["revoked", "expired", "gram.refuse", "site.outage"])
def test_a_refused_pooled_submit_raises_as_per_op_and_closes(setup, error):
    raised, pool, gram = _pooled_refusal(setup)
    assert raised is error is _per_op_error(setup)
    assert pool.open_channels == 0
    assert gram.refusals == 1 and gram.submissions == 1


def test_a_revoked_subject_needs_no_new_handshake_to_be_refused():
    """The refusal comes from ``accept`` on the open channel's submit,
    not from the channel happening to re-handshake."""
    raised, pool, gram = _pooled_refusal(revoke)
    assert raised is CertificateInvalid
    assert (gram.handshakes, gram.pooled_ops) == (1, 1)


def test_after_a_refusal_the_next_submit_reopens_the_channel():
    tb = quick_testbed()
    chain, client = logon(tb)
    pool = GsiChannelPool(tb.sim, enabled=True)
    gram = tb.gatekeepers[SITE]
    submit(tb, pool, client, chain, 0)
    fault_plane(tb.sim).add(FaultSpec("gram.refuse", target=SITE,
                                      max_fires=1))
    with pytest.raises(SubmissionRefused):
        submit(tb, pool, client, chain, 1)
    submit(tb, pool, client, chain, 2)
    assert gram.handshakes == 2
    assert pool.open_channels == 1


@pytest.mark.parametrize("text", [
    '&(executable="/scratch/none.bin")(count=x)',  # malformed
    "&(executable=/scratch/none.bin)(colour=red)",  # foreign attribute
    "(executable=/scratch/none.bin)",              # not RSL at all
])
def test_a_text_no_rendering_produced_is_still_refused(text):
    tb = quick_testbed()
    chain, client = logon(tb)
    rsl()  # something is remembered; this text is not it
    gram = tb.gatekeepers[SITE]
    with pytest.raises(RslError):
        tb.sim.run(until=tb.sim.process(gram.submit(client, chain, text)))
    assert gram.refusals == 1 and gram.submissions == 0
    assert bus(tb.sim).counts()["gram.refused"] == 1
