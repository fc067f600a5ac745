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

from repro.errors import GridError, TransferError, TransferSuperseded
from repro.faults import FaultSpec, fault_plane
from repro.grid import build_testbed
from repro.grid.channel import GsiChannelPool
from repro.units import Mbps


def quick_testbed():
    return build_testbed(n_sites=2, nodes_per_site=2, cores_per_node=4,
                         appliance_uplink=Mbps(10))


def drive(sim, op):
    """Run the generator *op* as a process to its end; its value."""
    return sim.run(until=sim.process(op))


def logon(tb, username="ada", passphrase="pw"):
    tb.new_grid_identity(username, passphrase)

    def flow():
        _key, proxy, ee = yield tb.myproxy.logon(
            tb.appliance_host, username, passphrase, lifetime=3600.0)
        return [proxy, ee]

    return drive(tb.sim, flow())


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
    pool = GsiChannelPool(sim, enabled=pooled)
    digest = hashlib.sha256(payload).hexdigest()
    drive(sim, ftp.put(client, chain, "/ref", payload))
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
                yield from pool.put(ftp, client, chain, "/striped",
                                    view[a:b], offset=a, total=size,
                                    transfer=digest)
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
        pool = GsiChannelPool(tb.sim, enabled=pooled)
        ftp = tb.ftp("ncsa")
        before = tb.sim.events_processed
        drive(tb.sim, pool.put(ftp, tb.appliance_host, chain, "/x",
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
    drive(sim, src.put(client, chain, "/exe", old))
    drive(sim, src.put(client, chain, "/exe", memoryview(new)[:600],
                       offset=0, total=1000, transfer="new"))
    # The old file stays what every reader sees ...
    assert site.read_file("/exe") == old
    assert drive(sim, src.get(client, chain, "/exe")) == old
    drive(sim, src.third_party_transfer(client, chain, "/exe", dst,
                                        "/copy"))
    assert tb.site("sdsc").read_file("/copy") == old
    # ... and a path with nothing but ranges does not exist.
    drive(sim, src.put(client, chain, "/fresh", memoryview(new)[:600],
                       offset=0, total=1000, transfer="new"))
    assert not site.has_file("/fresh") and not src.exists("/fresh")
    with pytest.raises(TransferError, match="no such file"):
        drive(sim, src.get(client, chain, "/fresh"))
    drive(sim, src.put(client, chain, "/exe", memoryview(new)[600:],
                       offset=600, total=1000, transfer="new"))
    assert site.read_file("/exe") == new
    assert list(site.incoming) == [("/fresh", "new")]


def test_two_transfers_of_one_path_never_mix_their_bytes():
    tb = quick_testbed()
    chain = logon(tb)
    sim, client, ftp = tb.sim, tb.appliance_host, tb.ftp("ncsa")
    site = tb.site("ncsa")
    a, b = b"a" * 900, b"b" * 900

    refused = []

    def land(payload, transfer, i):
        # The data of a PUT whose command reached the site earlier.
        try:
            site.store_file("/exe",
                            memoryview(payload)[300 * i:300 * (i + 1)],
                            300 * i, 900, transfer)
        except TransferSuperseded:
            refused.append((transfer, i))
        return site.storage.get("/exe")

    # A's three ranges are commanded, two land; then B is commanded —
    # the republished bytes — and B is the path's current transfer.
    site.begin_put("/exe", "A")
    seen = [land(a, "A", 0), land(a, "A", 1)]
    site.begin_put("/exe", "B")
    assert site.incoming == {}  # A's open ranges went with the command
    # A's last range lands late, among B's: refused, it opens nothing.
    seen += [land(b, "B", 1), land(a, "A", 2), land(b, "B", 0),
             land(b, "B", 2)]
    assert seen == [None, None, None, None, None, b]
    assert refused == [("A", 2)] and site.refused_ranges == 1
    assert site.incoming == {}
    # Later still, after B became visible: refused, nothing opened.
    assert land(a, "A", 0) == b
    assert refused[-1] == ("A", 0) and site.refused_ranges == 2
    assert site.incoming == {}
    # A stage of A commanded now makes A current again (each put sends
    # its command, then its data), and a range that arrives after its
    # file became visible (a re-send's) is absorbed instead of opening
    # a transfer nobody ends.
    for i in (1, 2, 0, 1):
        drive(sim, ftp.put(client, chain, "/exe",
                           memoryview(a)[300 * i:300 * (i + 1)],
                           offset=300 * i, total=900, transfer="A"))
    assert site.read_file("/exe") == a
    assert site.incoming == {} and site.refused_ranges == 2
    # Re-sent, overlapping and copied ranges still assemble the file.
    parts = [(0, b"x" * 500), (0, b"x" * 500), (400, b"x" * 200 + b"y" * 300)]
    for offset, part in parts:
        drive(sim, ftp.put(client, chain, "/joined", part, offset=offset,
                           total=900, transfer="J"))
    assert site.read_file("/joined") == b"x" * 600 + b"y" * 300


def test_a_site_to_site_copy_of_a_striped_file_shares_its_bytes():
    """A striped file lands as its source object (its ranges are views
    of it); a copy of it to another site lands as the very same object,
    not a fresh buffer per site."""
    tb = quick_testbed()
    chain = logon(tb)
    sim, client = tb.sim, tb.appliance_host
    src, dst = tb.ftp("ncsa"), tb.ftp("sdsc")
    payload = bytes(range(256)) * 40
    digest = hashlib.sha256(payload).hexdigest()
    view = memoryview(payload)
    for a, b in cut(len(payload), 4):
        drive(sim, src.put(client, chain, "/exe", view[a:b], offset=a,
                           total=len(payload), transfer=digest))
    assert tb.site("ncsa").read_file("/exe") is payload
    drive(sim, src.third_party_transfer(client, chain, "/exe", dst,
                                        "/exe"))
    assert tb.site("sdsc").read_file("/exe") is payload
    assert tb.site("sdsc").incoming == {}


def test_a_range_that_does_not_fit_its_file_is_refused():
    site = quick_testbed().site("ncsa")
    for offset, total in ((-1, 10), (8, 10), (0, None)):
        with pytest.raises(GridError, match="does not fit"):
            site.store_file("/x", b"abc", offset, total, "t")
    assert site.incoming == {}


def test_a_late_range_of_replaced_bytes_is_refused_and_opens_nothing():
    """A republish while a range of the old bytes is on the wire: the
    new bytes' PUT is commanded after it, so when the old range lands it
    is refused — counted, and no transfer of the old bytes is left open
    for nobody to finish."""
    tb = quick_testbed()
    chain = logon(tb)
    sim, client, ftp = tb.sim, tb.appliance_host, tb.ftp("ncsa")
    site = tb.site("ncsa")
    old, new = b"o" * 90_000, b"n" * 30_000

    def republish():
        yield sim.timeout(0.01)  # the old range's command has landed
        yield sim.all_of([
            sim.process(ftp.put(client, chain, "/exe",
                                memoryview(new)[i:i + 10_000], offset=i,
                                total=30_000, transfer="new"))
            for i in range(0, 30_000, 10_000)])
        assert site.read_file("/exe") == new
        assert ("/exe", "old") not in site.incoming

    late = sim.process(outcome(ftp.put(
        client, chain, "/exe", memoryview(old)[:60_000], offset=0,
        total=90_000, transfer="old")))
    sim.run(until=sim.all_of([late, sim.process(republish())]))
    # The sender learns its bytes did not land: nothing records them.
    assert late.value == "TransferSuperseded"
    assert site.refused_ranges == 1
    assert site.incoming == {} and site.read_file("/exe") == new


def outcome(put):
    """A process body: *put*'s fate, as the name of what failed it."""
    try:
        yield from put
    except TransferError as exc:
        return type(exc).__name__
    return "landed"


def test_a_whole_file_commanded_before_a_ranged_put_is_refused():
    """Whole files among themselves keep "last to land wins" (the
    faithful re-upload of the same bytes), but one commanded before a
    ranged PUT of newer bytes does not land over them."""
    tb = quick_testbed()
    chain = logon(tb)
    sim, client, ftp = tb.sim, tb.appliance_host, tb.ftp("ncsa")
    site = tb.site("ncsa")
    old, new = b"o" * 90_000, b"n" * 30_000

    def ranged():
        yield sim.timeout(0.01)  # the whole file's command has landed
        yield from ftp.put(client, chain, "/exe", new, offset=0,
                           total=30_000, transfer="new")

    whole = sim.process(outcome(ftp.put(client, chain, "/exe", old)))
    sim.run(until=sim.all_of([whole, sim.process(ranged())]))
    assert whole.value == "TransferSuperseded"
    assert site.read_file("/exe") == new and site.refused_ranges == 1
    # A whole file commanded after it lands, as does one after that.
    for data in (old, new):
        drive(sim, ftp.put(client, chain, "/exe", data))
        assert site.read_file("/exe") == data


def test_a_site_to_site_copy_is_a_put_like_any_other():
    """A third-party copy lands under the same rule: commanded while a
    ranged PUT of other bytes is on its way to the destination, it
    takes the path and the late range is refused; a copy of the bytes a
    transfer in flight there carries joins that transfer instead."""
    tb = quick_testbed()
    chain = logon(tb)
    sim, client = tb.sim, tb.appliance_host
    src, dst = tb.ftp("ncsa"), tb.ftp("sdsc")
    sdsc = tb.site("sdsc")
    old, new = b"o" * 600_000, b"n" * 900
    for i in range(3):  # ncsa shows the new bytes, as transfer "new"
        drive(sim, src.put(client, chain, "/exe",
                           memoryview(new)[300 * i:300 * (i + 1)],
                           offset=300 * i, total=900, transfer="new"))

    def copy():
        yield sim.timeout(0.01)  # the old range's command has landed
        yield from src.third_party_transfer(client, chain, "/exe", dst,
                                            "/exe")
        assert sdsc.read_file("/exe") == new

    late = sim.process(outcome(dst.put(
        client, chain, "/exe", memoryview(old)[:300_000], offset=0,
        total=600_000, transfer="old")))
    sim.run(until=sim.all_of([late, sim.process(copy())]))
    assert late.value == "TransferSuperseded"
    assert sdsc.read_file("/exe") == new and sdsc.refused_ranges == 1
    assert sdsc.incoming == {}
    # A stage of "new" under way at sdsc: a copy of "new" completes it,
    # and the stage's own later range is absorbed.
    drive(sim, dst.put(client, chain, "/new", memoryview(new)[:300],
                       offset=0, total=900, transfer="new"))
    drive(sim, src.third_party_transfer(client, chain, "/exe", dst,
                                        "/new"))
    assert sdsc.read_file("/new") == new and sdsc.incoming == {}
    drive(sim, dst.put(client, chain, "/new", memoryview(new)[300:],
                       offset=300, total=900, transfer="new"))
    assert sdsc.read_file("/new") == new and sdsc.refused_ranges == 1
