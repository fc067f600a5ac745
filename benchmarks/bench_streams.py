"""STREAMS — GridFTP parallel streams under contention.

Not in the paper's evaluation, but the standard grid-era answer to its
network bottleneck (§VIII.D.2): multiple data connections grab multiple
fair shares of a congested link.  The bench times the same 300 KB
staging transfer with 1 vs 4 streams while a long background transfer
hogs the uplink.
"""

from repro.grid import build_testbed
from repro.units import KB, KBps, Mbps
from repro.workloads import make_payload


def _contended_put(streams: int) -> float:
    tb = build_testbed(n_sites=2, nodes_per_site=2, cores_per_node=4,
                       appliance_uplink=KBps(100))
    tb.new_grid_identity("ada", "pw")
    client = tb.appliance_host

    def logon():
        _k, proxy, ee = yield tb.myproxy.logon(client, "ada", "pw", 3600.0)
        return [proxy, ee]

    chain = tb.sim.run(until=tb.sim.process(logon()))
    payload = make_payload("echo", size=int(KB(300)))
    result = {}

    def background():
        yield from tb.ftp("sdsc").put(
            client, chain, "/bg", make_payload("echo", size=int(KB(3000))))

    def measured():
        yield tb.sim.timeout(1.0)
        t0 = tb.sim.now
        yield from tb.ftp("ncsa").put(client, chain, "/f", payload,
                                      streams=streams)
        result["t"] = tb.sim.now - t0

    tb.sim.process(background())
    tb.sim.process(measured())
    tb.sim.run()
    return result["t"]


def test_parallel_streams_under_contention(benchmark, save_report):
    def run():
        return {s: _contended_put(s) for s in (1, 2, 4)}

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["GridFTP parallel streams on a contended 100 KB/s uplink",
             "=" * 54,
             f"{'streams':>8} {'300 KB put':>11} {'speedup':>8}"]
    base = times[1]
    for s, t in sorted(times.items()):
        lines.append(f"{s:>8d} {t:>9.1f} s {base / t:>7.2f}x")
    save_report("streams", "\n".join(lines))
    assert times[4] < times[2] < times[1]
