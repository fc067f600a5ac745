"""Tests for GridFTP parallel streams and time-series percentiles."""

import pytest

from repro.errors import TransferError
from repro.grid import build_testbed
from repro.units import KB, KBps, Mbps
from repro.workloads import make_payload


def quick_testbed(**kw):
    kw.setdefault("n_sites", 2)
    kw.setdefault("nodes_per_site", 2)
    kw.setdefault("cores_per_node", 4)
    kw.setdefault("appliance_uplink", Mbps(10))
    return build_testbed(**kw)


def logon(tb, username="ada"):
    tb.new_grid_identity(username, "pw")
    client = tb.appliance_host

    def flow():
        key, proxy, ee = yield tb.myproxy.logon(client, username, "pw",
                                                lifetime=3600.0)
        return [proxy, ee]

    return tb.sim.run(until=tb.sim.process(flow())), client


# ---------------------------------------------------------------- streams

def test_single_vs_multi_stream_alone_is_equal():
    results = {}
    for streams in (1, 4):
        tb = quick_testbed(appliance_uplink=KBps(100))
        chain, client = logon(tb)
        payload = make_payload("echo", size=int(KB(400)))

        def flow():
            t0 = tb.sim.now
            yield from tb.ftp("ncsa").put(client, chain, "/f", payload,
                                          streams=streams)
            return tb.sim.now - t0

        results[streams] = tb.sim.run(until=tb.sim.process(flow()))
    # Alone on the link, stream count barely matters.
    assert results[4] == pytest.approx(results[1], rel=0.05)


def test_multi_stream_wins_under_contention():
    tb = quick_testbed(appliance_uplink=KBps(100))
    chain, client = logon(tb)
    payload = make_payload("echo", size=int(KB(300)))
    durations = {}

    def competitor():
        # A long single-stream background transfer hogging the uplink.
        yield from tb.ftp("sdsc").put(
            client, chain, "/bg", make_payload("echo", size=int(KB(2000))))

    def contender(streams, path):
        yield tb.sim.timeout(1.0)  # let the competitor start
        t0 = tb.sim.now
        yield from tb.ftp("ncsa").put(client, chain, path, payload,
                                      streams=streams)
        durations[streams] = tb.sim.now - t0

    tb.sim.process(competitor())
    tb.sim.process(contender(4, "/multi"))
    tb.sim.run()

    tb2 = quick_testbed(appliance_uplink=KBps(100))
    chain2, client2 = logon(tb2)

    def competitor2():
        yield from tb2.ftp("sdsc").put(
            client2, chain2, "/bg", make_payload("echo", size=int(KB(2000))))

    def contender2():
        yield tb2.sim.timeout(1.0)
        t0 = tb2.sim.now
        yield from tb2.ftp("ncsa").put(client2, chain2, "/single", payload,
                                       streams=1)
        durations[1] = tb2.sim.now - t0

    tb2.sim.process(competitor2())
    tb2.sim.process(contender2())
    tb2.sim.run()
    # Four streams claim 4/5 of the contended link vs 1/2 for one stream.
    assert durations[4] < durations[1] * 0.75


def test_stream_validation_and_integrity():
    tb = quick_testbed()
    chain, client = logon(tb)
    with pytest.raises(TransferError):
        tb.ftp("ncsa").put(client, chain, "/f", b"x", streams=0)
    payload = make_payload("echo", size=12345)  # not stream-divisible

    def flow():
        yield from tb.ftp("ncsa").put(client, chain, "/f", payload, streams=4)
        return tb.site("ncsa").read_file("/f")

    assert tb.sim.run(until=tb.sim.process(flow())) == payload


# ---------------------------------------------------------------- percentiles

def test_timeseries_percentiles():
    from repro.telemetry import TimeSeries

    s = TimeSeries("s")
    for i, v in enumerate(range(1, 11)):  # 1..10
        s.append(float(i), float(v))
    assert s.percentile(0) == 1.0
    assert s.percentile(100) == 10.0
    assert s.percentile(50) == pytest.approx(5.5)
    summary = s.summary()
    assert summary["p95"] == pytest.approx(9.55)
    assert summary["mean"] == pytest.approx(5.5)
    empty = TimeSeries("e")
    assert empty.percentile(50) == 0.0
    with pytest.raises(ValueError):
        s.percentile(101)
