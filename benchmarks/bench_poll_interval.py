"""POLL — ablation: the tentative-poll interval trade-off.

The paper's workaround polls output on "a relative constant interval".
The interval choice trades completion latency (a finished job waits up
to one interval before anyone notices) against wasted transfers ("the
output more often than necessary... may reduce the network performance
even more").  This sweep quantifies both sides.
"""

from repro.core import OnServeConfig, deploy_onserve, discover_and_invoke
from repro.grid import build_testbed
from repro.units import KB, Mbps
from repro.workloads import make_payload


def _one(interval: float, runtime: float = 60.0):
    tb = build_testbed(n_sites=2, nodes_per_site=2, cores_per_node=4,
                       appliance_uplink=Mbps(8))
    stack = tb.sim.run(until=deploy_onserve(
        tb, OnServeConfig(poll_interval=interval)))
    payload = make_payload("fixed", size=int(KB(8)), runtime=f"{runtime}",
                           output_bytes=str(int(KB(16))))
    tb.sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "p.bin", payload))
    net_before = tb.appliance_host.net_bytes_in()
    t0 = tb.sim.now
    tb.sim.run(until=discover_and_invoke(stack, stack.user_clients[0], "P%"))
    elapsed = tb.sim.now - t0
    report = stack.onserve.runtimes["PService"].last_report
    wasted = tb.appliance_host.net_bytes_in() - net_before
    return {"interval": interval, "elapsed": elapsed,
            "latency_overhead": elapsed - runtime,
            "polls": report.polls, "bytes_in": wasted}


def test_poll_interval_tradeoff(benchmark, save_report):
    intervals = (3.0, 9.0, 27.0)
    rows = benchmark.pedantic(lambda: [_one(i) for i in intervals],
                              rounds=1, iterations=1)
    lines = ["Ablation — tentative-poll interval trade-off (60 s job)",
             "=" * 55,
             f"{'interval':>8} {'polls':>6} {'latency overhead':>17} "
             f"{'bytes pulled':>13}"]
    for row in rows:
        lines.append(f"{row['interval']:>7.0f}s {row['polls']:>6d} "
                     f"{row['latency_overhead']:>15.1f} s "
                     f"{row['bytes_in']:>12.0f}")
    save_report("ablation_poll_interval", "\n".join(lines))
    # Tighter polling: more polls, more traffic, less latency overhead.
    assert rows[0]["polls"] > rows[-1]["polls"]
    assert rows[0]["bytes_in"] > rows[-1]["bytes_in"]
    assert rows[0]["latency_overhead"] < rows[-1]["latency_overhead"]
