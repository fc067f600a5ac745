"""GridFTP's partial-file PUT: ranges of one transfer, visible when whole.

A whole-file ``put`` is the in-test reference throughout: whatever the
sizes, the number of ranges, the order they land in and the attempts a
fault takes out, the site must end with exactly the bytes one ``put``
would have left — and must not show the file a moment earlier.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GridError, TransferError
from repro.faults import FaultSpec, fault_plane
from repro.grid import build_testbed
from repro.grid.gridftp import GridFtpSessionPool
from repro.units import Mbps


def quick_testbed():
    return build_testbed(n_sites=2, nodes_per_site=2, cores_per_node=4,
                         appliance_uplink=Mbps(10))


def logon(tb, username="ada", passphrase="pw"):
    tb.new_grid_identity(username, passphrase)

    def flow():
        _key, proxy, ee = yield tb.myproxy.logon(
            tb.appliance_host, username, passphrase, lifetime=3600.0)
        return [proxy, ee]

    return tb.sim.run(until=tb.sim.process(flow()))


def cut(size, k):
    """k (offset, end) ranges covering [0, size), the last one longest."""
    step = size // k
    return [(i * step, (i + 1) * step if i < k - 1 else size)
            for i in range(k)]


@settings(max_examples=40, deadline=None)
@given(size=st.integers(1, 40_000), k=st.integers(1, 8), data=st.data())
def test_ranges_in_any_order_leave_what_one_put_leaves(size, k, data):
    k = min(k, size)
    payload = data.draw(st.binary(min_size=size, max_size=size))
    delays = data.draw(st.lists(st.floats(0.0, 2.0), min_size=k, max_size=k))
    aborts = data.draw(st.integers(0, k))
    pooled = data.draw(st.booleans())
    tb = quick_testbed()
    sim, client, site, ftp = (tb.sim, tb.appliance_host, tb.site("ncsa"),
                              tb.ftp("ncsa"))
    chain = logon(tb)
    pool = GridFtpSessionPool(sim, enabled=pooled)
    digest = hashlib.sha256(payload).hexdigest()
    sim.run(until=ftp.put(client, chain, "/ref", payload))
    if aborts:
        fault_plane(sim).add(FaultSpec("gridftp.abort", target="ncsa",
                                       max_fires=aborts))
    view = memoryview(payload)
    early = []  # was the file visible before its last range landed?

    def stripe(delay, a, b):
        yield sim.timeout(delay)
        while True:  # the leader's re-send of a range that failed
            early.append(site.has_file("/striped"))
            try:
                yield pool.put(ftp, client, chain, "/striped", view[a:b],
                               offset=a, total=size, transfer=digest)
                return
            except TransferError:
                pass

    sim.run(until=sim.all_of([
        sim.process(stripe(delay, a, b))
        for delay, (a, b) in zip(delays, cut(size, k))]))
    assert site.read_file("/striped") == site.read_file("/ref") == payload
    assert hashlib.sha256(site.read_file("/striped")).hexdigest() == digest
    assert site.read_file("/striped") is payload  # views: nothing joined
    assert not any(early)
    assert site.incoming == {}


@pytest.mark.parametrize("pooled", [False, True])
def test_one_range_costs_exactly_what_a_whole_file_put_costs(pooled):
    payload = bytes(range(256)) * 300
    runs = []
    for where in ({}, dict(offset=0, total=len(payload), transfer="t-1")):
        tb = quick_testbed()
        chain = logon(tb)
        pool = GridFtpSessionPool(tb.sim, enabled=pooled)
        ftp = tb.ftp("ncsa")
        before = tb.sim.events_processed
        tb.sim.run(until=pool.put(ftp, tb.appliance_host, chain, "/x",
                                  payload, **where))
        runs.append((tb.sim.now, tb.sim.events_processed - before,
                     ftp.control_bytes, tb.site("ncsa").read_file("/x")))
    assert runs[0] == runs[1]


def test_an_incomplete_transfer_is_invisible_to_every_reader():
    tb = quick_testbed()
    chain = logon(tb)
    sim, client = tb.sim, tb.appliance_host
    src, dst = tb.ftp("ncsa"), tb.ftp("sdsc")
    site = tb.site("ncsa")
    old, new = b"o" * 1000, b"n" * 1000
    sim.run(until=src.put(client, chain, "/exe", old))
    sim.run(until=src.put(client, chain, "/exe", memoryview(new)[:600],
                          offset=0, total=1000, transfer="new"))
    # The old file stays what every reader sees ...
    assert site.read_file("/exe") == old
    assert sim.run(until=src.get(client, chain, "/exe")) == old
    sim.run(until=src.third_party_transfer(client, chain, "/exe", dst,
                                           "/copy"))
    assert tb.site("sdsc").read_file("/copy") == old
    # ... and a path with nothing but ranges does not exist.
    sim.run(until=src.put(client, chain, "/fresh", memoryview(new)[:600],
                          offset=0, total=1000, transfer="new"))
    assert not site.has_file("/fresh") and not src.exists("/fresh")
    with pytest.raises(TransferError, match="no such file"):
        sim.run(until=src.get(client, chain, "/fresh"))
    sim.run(until=src.put(client, chain, "/exe", memoryview(new)[600:],
                          offset=600, total=1000, transfer="new"))
    assert site.read_file("/exe") == new
    assert list(site.incoming) == [("/fresh", "new")]


def test_two_transfers_of_one_path_never_mix_their_bytes():
    tb = quick_testbed()
    chain = logon(tb)
    sim, client, ftp = tb.sim, tb.appliance_host, tb.ftp("ncsa")
    site = tb.site("ncsa")
    a, b = b"a" * 900, b"b" * 900
    order = [(a, "A", 0), (b, "B", 1), (a, "A", 2), (b, "B", 0),
             (b, "B", 2), (a, "A", 1)]
    seen = []
    for payload, transfer, i in order:
        sim.run(until=ftp.put(client, chain, "/exe",
                              memoryview(payload)[300 * i:300 * (i + 1)],
                              offset=300 * i, total=900, transfer=transfer))
        seen.append(site.storage.get("/exe"))
    # Nothing until one transfer is whole, then always one whole payload:
    # the transfer that finished last.
    assert seen == [None, None, None, None, b, a]
    assert site.incoming == {}
    # A range that arrives after its file became visible (a zombie's, a
    # re-send's) is absorbed instead of opening a transfer nobody ends.
    sim.run(until=ftp.put(client, chain, "/exe", memoryview(a)[:300],
                          offset=0, total=900, transfer="A"))
    assert site.incoming == {}
    # Re-sent, overlapping and copied ranges still assemble the file.
    parts = [(0, b"x" * 500), (0, b"x" * 500), (400, b"x" * 200 + b"y" * 300)]
    for offset, part in parts:
        sim.run(until=ftp.put(client, chain, "/joined", part, offset=offset,
                              total=900, transfer="J"))
    assert site.read_file("/joined") == b"x" * 600 + b"y" * 300


def test_a_range_that_does_not_fit_its_file_is_refused():
    site = quick_testbed().site("ncsa")
    for offset, total in ((-1, 10), (8, 10), (0, None)):
        with pytest.raises(GridError, match="does not fit"):
            site.store_file("/x", b"abc", offset, total, "t")
    assert site.incoming == {}
