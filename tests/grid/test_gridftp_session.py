"""GsiChannel/pool: reuse, idle-close, clamping, 3pt parity."""

import pytest

from repro.core.context import RequestContext
from repro.errors import TransferError
from repro.faults import FaultSpec, fault_plane
from repro.grid import build_testbed
from repro.grid.channel import GsiChannel, GsiChannelPool
from repro.grid.gridftp import GridFtpServer
from repro.security.gsi import GsiAcceptor
from repro.simkernel import Simulator
from repro.telemetry.events import bus
from repro.telemetry.gauges import gauges
from repro.units import KB, Mbps
from repro.workloads import make_payload


def quick_testbed(**kw):
    kw.setdefault("n_sites", 2)
    kw.setdefault("nodes_per_site", 2)
    kw.setdefault("cores_per_node", 4)
    kw.setdefault("appliance_uplink", Mbps(10))
    return build_testbed(**kw)


def logon(tb, username="ada", passphrase="pw"):
    tb.new_grid_identity(username, passphrase)
    client = tb.appliance_host

    def flow():
        key, proxy, ee = yield tb.myproxy.logon(client, username, passphrase,
                                                lifetime=3600.0)
        return [proxy, ee]

    chain = tb.sim.run(until=tb.sim.process(flow()))
    return chain, client


# ------------------------------------------------------------- sessions

def test_session_reuse_handshakes_once():
    tb = quick_testbed()
    chain, client = logon(tb)
    ftp = tb.ftp("ncsa")
    pool = GsiChannelPool(tb.sim, enabled=True)
    payload = make_payload("echo", size=int(KB(8)))

    def flow():
        yield from pool.put(ftp, client, chain, "/a", payload)
        yield from pool.put(ftp, client, chain, "/b", payload)
        data = yield from pool.get(ftp, client, chain, "/a")
        return data

    data = tb.sim.run(until=tb.sim.process(flow()))
    assert data == payload
    session = pool.channel(ftp, client, chain)
    assert session.handshakes == 1
    assert session.ops == 3
    assert pool.open_channels == 1
    # Control cost: one handshake + per-op command bytes, not three
    # handshakes.
    handshake = GsiAcceptor.handshake_bytes(chain)
    assert ftp.control_bytes == (handshake + ftp.CONTROL_BYTES
                                 + 2 * GsiChannel.SESSION_OP_BYTES)
    assert bus(tb.sim).counts().get("gridftp.session_open") == 1


def test_session_concurrent_first_ops_share_one_handshake():
    tb = quick_testbed()
    chain, client = logon(tb)
    ftp = tb.ftp("ncsa")
    pool = GsiChannelPool(tb.sim, enabled=True)
    payload = make_payload("echo", size=int(KB(4)))

    def flow():
        a = tb.sim.process(pool.put(ftp, client, chain, "/a", payload))
        b = tb.sim.process(pool.put(ftp, client, chain, "/b", payload))
        yield tb.sim.all_of([a, b])

    tb.sim.run(until=tb.sim.process(flow()))
    assert pool.channel(ftp, client, chain).handshakes == 1


def test_session_idle_timeout_rehandshakes():
    tb = quick_testbed()
    chain, client = logon(tb)
    ftp = tb.ftp("ncsa")
    pool = GsiChannelPool(tb.sim, enabled=True, idle_timeout=60.0)
    payload = make_payload("echo", size=int(KB(4)))

    def flow():
        yield from pool.put(ftp, client, chain, "/a", payload)
        yield tb.sim.timeout(120.0)  # idle past the timeout
        yield from pool.put(ftp, client, chain, "/b", payload)

    tb.sim.run(until=tb.sim.process(flow()))
    session = pool.channel(ftp, client, chain)
    assert session.handshakes == 2
    assert session.ops == 2


def test_disabled_pool_is_timing_identical_to_direct_ops():
    def run(via_pool: bool) -> float:
        tb = quick_testbed(sim=Simulator(seed=7))
        chain, client = logon(tb)
        ftp = tb.ftp("ncsa")
        payload = make_payload("echo", size=int(KB(16)))
        pool = GsiChannelPool(tb.sim, enabled=False)

        def flow():
            if via_pool:
                yield from pool.put(ftp, client, chain, "/x", payload,
                                    streams=2)
                yield from pool.get(ftp, client, chain, "/x")
            else:
                yield from ftp.put(client, chain, "/x", payload, streams=2)
                yield from ftp.get(client, chain, "/x")

        tb.sim.run(until=tb.sim.process(flow()))
        return tb.sim.now

    assert run(via_pool=True) == run(via_pool=False)


def test_session_invalidated_by_failure():
    tb = quick_testbed()
    chain, client = logon(tb)
    ftp = tb.ftp("ncsa")
    pool = GsiChannelPool(tb.sim, enabled=True)
    payload = make_payload("echo", size=int(KB(4)))
    fault_plane(tb.sim).add(
        FaultSpec("site.outage", target="ncsa", window=(5.0, 1e9)))

    def flow():
        yield from pool.put(ftp, client, chain, "/a", payload)
        yield tb.sim.timeout(10.0)  # into the outage window
        yield from pool.put(ftp, client, chain, "/b", payload)

    with pytest.raises(TransferError):
        tb.sim.run(until=tb.sim.process(flow()))
    assert not pool.channel(ftp, client, chain).open
    assert pool.open_channels == 0


def test_new_credential_replaces_session():
    tb = quick_testbed()
    chain, client = logon(tb)
    ftp = tb.ftp("ncsa")
    pool = GsiChannelPool(tb.sim, enabled=True)
    payload = make_payload("echo", size=int(KB(4)))

    def flow(use_chain):
        def op():
            yield from pool.put(ftp, client, use_chain, "/a", payload)
        return tb.sim.process(op())

    tb.sim.run(until=flow(chain))
    first = pool.channel(ftp, client, chain)
    chain2, _ = logon(tb, username="ada", passphrase="pw")  # fresh proxy
    tb.sim.run(until=flow(chain2))
    second = pool.channel(ftp, client, chain2)
    assert second is not first
    assert not first.open


# ------------------------------------------------------- streams clamping

def test_put_clamps_streams_to_payload():
    tb = quick_testbed()
    chain, client = logon(tb)
    ftp = tb.ftp("ncsa")

    def flow():
        yield from ftp.put(client, chain, "/tiny", b"abc", streams=8)

    tb.sim.run(until=tb.sim.process(flow()))
    # Only 3 data connections ever opened — no zero-byte streams.
    assert gauges(tb.sim).gauge("gridftp.ncsa.streams").peak() == 3
    put_events = bus(tb.sim).events(kind="gridftp.put")
    assert put_events[-1].fields["streams"] == 3
    assert tb.site("ncsa").read_file("/tiny") == b"abc"


def test_put_rejects_nonpositive_streams():
    tb = quick_testbed()
    chain, client = logon(tb)
    with pytest.raises(TransferError):
        tb.ftp("ncsa").put(client, chain, "/x", b"data", streams=0)


def test_effective_streams_floor_is_one():
    assert GridFtpServer.effective_streams(4, 0) == 1
    assert GridFtpServer.effective_streams(4, 2) == 2
    assert GridFtpServer.effective_streams(4, 100) == 4


# --------------------------------------------------- third-party transfer

def _stage_source(tb, chain, client, path, payload):
    def flow():
        yield from tb.ftp("ncsa").put(client, chain, path, payload)

    tb.sim.run(until=tb.sim.process(flow()))


def test_third_party_transfer_traced_and_counted():
    tb = quick_testbed()
    chain, client = logon(tb)
    payload = make_payload("echo", size=int(KB(16)))
    _stage_source(tb, chain, client, "/src", payload)
    src, dst = tb.ftp("ncsa"), tb.ftp("sdsc")
    ctl_src0, ctl_dst0 = src.control_bytes, dst.control_bytes
    ctx = RequestContext.create(tb.sim)

    def flow():
        yield from src.third_party_transfer(client, chain, "/src", dst,
                                            "/dst", ctx=ctx)

    tb.sim.run(until=tb.sim.process(flow()))
    assert tb.site("sdsc").read_file("/dst") == payload
    assert src.transfers_out == 1
    assert dst.transfers_in == 1
    # Control channels to both ends are accounted.
    assert src.control_bytes > ctl_src0
    assert dst.control_bytes > ctl_dst0
    # Span + telemetry parity with put/get.
    assert any(s.name == "gridftp:3pt" for s in ctx.spans())
    events = bus(tb.sim).events(kind="gridftp.third_party")
    assert len(events) == 1
    assert events[0].fields["nbytes"] == len(payload)
    # The head-to-head data connection showed up on both stream gauges.
    assert gauges(tb.sim).gauge("gridftp.sdsc.streams").peak() >= 1


def test_third_party_transfer_respects_site_outage():
    tb = quick_testbed()
    chain, client = logon(tb)
    payload = make_payload("echo", size=int(KB(4)))
    _stage_source(tb, chain, client, "/src", payload)
    fault_plane(tb.sim).add(
        FaultSpec("site.outage", target="sdsc", window=(0.0, 1e9)))

    def flow():
        yield from tb.ftp("ncsa").third_party_transfer(
            client, chain, "/src", tb.ftp("sdsc"), "/dst")

    with pytest.raises(TransferError, match="outage"):
        tb.sim.run(until=tb.sim.process(flow()))


def test_third_party_transfer_abort_fault():
    tb = quick_testbed()
    chain, client = logon(tb)
    payload = make_payload("echo", size=int(KB(4)))
    _stage_source(tb, chain, client, "/src", payload)
    fault_plane(tb.sim).add(FaultSpec("gridftp.abort", target="ncsa"))

    def flow():
        yield from tb.ftp("ncsa").third_party_transfer(
            client, chain, "/src", tb.ftp("sdsc"), "/dst")

    with pytest.raises(TransferError, match="aborted"):
        tb.sim.run(until=tb.sim.process(flow()))
    assert not tb.site("sdsc").has_file("/dst")


# ------------------------------------- third party on the session pool

def test_third_party_on_open_channels_pays_one_command_per_end():
    tb = quick_testbed()
    chain, client = logon(tb)
    src, dst = tb.ftp("ncsa"), tb.ftp("sdsc")
    pool = GsiChannelPool(tb.sim, enabled=True)
    payload = make_payload("echo", size=int(KB(16)))
    ctx = RequestContext.create(tb.sim)

    def flow():
        yield from pool.put(src, client, chain, "/src", payload)
        yield from pool.put(dst, client, chain, "/other", payload)
        before = src.control_bytes, dst.control_bytes
        n = yield from pool.third_party(src, dst, client, chain, "/src",
                                        "/dst", ctx=ctx)
        return n, before

    n, (src0, dst0) = tb.sim.run(until=tb.sim.process(flow()))
    assert n == len(payload)
    assert tb.site("sdsc").read_file("/dst") is payload
    assert src.control_bytes - src0 == GsiChannel.SESSION_OP_BYTES
    assert dst.control_bytes - dst0 == GsiChannel.SESSION_OP_BYTES
    sessions = [pool.channel(end, client, chain) for end in (src, dst)]
    assert [(s.handshakes, s.ops) for s in sessions] == [(1, 2), (1, 2)]
    assert (src.transfers_out, dst.transfers_in) == (1, 2)
    [event] = bus(tb.sim).events(kind="gridftp.third_party")
    assert event.fields["session"] and event.fields["nbytes"] == n
    [node] = [s for s in ctx.spans() if s.name == "gridftp:3pt"]
    assert node.meta["session"] and node.closed


def test_third_party_on_a_cold_pool_opens_both_channels_once():
    tb = quick_testbed()
    chain, client = logon(tb)
    payload = make_payload("echo", size=int(KB(4)))
    _stage_source(tb, chain, client, "/src", payload)
    src, dst = tb.ftp("ncsa"), tb.ftp("sdsc")
    pool = GsiChannelPool(tb.sim, enabled=True)
    for dst_path in ("/a", "/b"):
        tb.sim.run(until=tb.sim.process(pool.third_party(
            src, dst, client, chain, "/src", dst_path)))
    assert tb.site("sdsc").read_file("/b") == payload
    assert pool.open_channels == 2
    assert bus(tb.sim).counts()["gridftp.session_open"] == 2


def test_disabled_pool_third_party_is_the_per_operation_transfer():
    runs = []
    for pooled_call in (False, True):
        tb = quick_testbed()
        chain, client = logon(tb)
        payload = make_payload("echo", size=int(KB(16)))
        _stage_source(tb, chain, client, "/src", payload)
        src, dst = tb.ftp("ncsa"), tb.ftp("sdsc")
        pool = GsiChannelPool(tb.sim)  # disabled: the default
        before = tb.sim.events_processed
        tb.sim.run(until=tb.sim.process(
            pool.third_party(src, dst, client, chain, "/src", "/dst")
            if pooled_call else
            src.third_party_transfer(client, chain, "/src", dst, "/dst")))
        runs.append((tb.sim.now, tb.sim.events_processed - before,
                     src.control_bytes, dst.control_bytes,
                     [(e.kind, sorted(e.fields.items()))
                      for e in bus(tb.sim).events()]))
        assert pool.open_channels == 0
    assert runs[0] == runs[1]


@pytest.mark.parametrize("fault", [
    FaultSpec("gridftp.abort", target="ncsa"),
    FaultSpec("site.outage", target="sdsc", window=(0.0, 1e9)),
])
def test_a_failed_pooled_third_party_drops_both_channels(fault):
    tb = quick_testbed()
    chain, client = logon(tb)
    payload = make_payload("echo", size=int(KB(4)))
    src, dst = tb.ftp("ncsa"), tb.ftp("sdsc")
    pool = GsiChannelPool(tb.sim, enabled=True)
    for end, path in ((src, "/src"), (dst, "/other")):
        tb.sim.run(until=tb.sim.process(
            pool.put(end, client, chain, path, payload)))
    assert pool.open_channels == 2
    fault_plane(tb.sim).add(fault)
    with pytest.raises(TransferError, match="aborted|outage"):
        tb.sim.run(until=tb.sim.process(pool.third_party(
            src, dst, client, chain, "/src", "/dst")))
    assert pool.open_channels == 0
    assert not tb.site("sdsc").has_file("/dst")

