#!/usr/bin/env python
"""The §VIII.D stress test: simultaneous requests and the bottleneck.

"In a stress-test-scenario, when multiple up- and downloads from and to
the system have to be performed, a poor network connection might become
a bottleneck slowing down the treatment of the requests."

Eight users hammer the appliance at once — half uploading new 2 MB
executables through the portal, half invoking already-published
services — on a slow-uplink testbed.  The appliance host is instrumented
with the paper's 3-second sampler; the run ends with the utilization
figure, the uplink's samples behind it and the per-request latency
table.
"""

from repro.core import deploy_onserve, OnServeConfig
from repro.core.invocation import discover_and_invoke
from repro.grid import build_testbed
from repro.telemetry import HostSampler, render_figure, series_table
from repro.units import KB, KBps, MB, Mbps, fmt_duration
from repro.workloads import make_payload


def main() -> None:
    n_users = 8
    testbed = build_testbed(n_sites=4, nodes_per_site=4, cores_per_node=8,
                            appliance_uplink=KBps(300),
                            lan_bandwidth=Mbps(100), n_users=n_users)
    sim = testbed.sim
    stack = sim.run(until=deploy_onserve(
        testbed, OnServeConfig(poll_interval=9.0)))

    # Pre-publish services for the invokers.
    for i in range(n_users // 2, n_users):
        payload = make_payload("fixed", size=int(KB(256)), runtime="40",
                               output_bytes=str(int(KB(4))))
        sim.run(until=stack.portal.upload_and_generate(
            testbed.user_hosts[i], f"svc-{i:02d}.bin", payload))

    sampler = HostSampler(testbed.appliance_host, interval=3.0)
    t0 = sim.now
    latencies = []

    def uploader(i):
        payload = make_payload("fixed", size=int(2 * MB(1)), runtime="40")
        start = sim.now
        yield stack.portal.upload_and_generate(
            testbed.user_hosts[i], f"up-{i:02d}.bin", payload)
        latencies.append((f"upload-{i}", sim.now - start))

    def invoker(i):
        start = sim.now
        yield discover_and_invoke(stack, stack.user_clients[i],
                                  f"Svc{i:02d}%")
        latencies.append((f"invoke-{i}", sim.now - start))

    procs = []
    for i in range(n_users // 2):
        procs.append(sim.process(uploader(i)))
    for i in range(n_users // 2, n_users):
        procs.append(sim.process(invoker(i)))
    sim.run(until=sim.all_of(procs))
    makespan = sim.now - t0
    sim.run(until=sim.now + 3.0)  # close the last sample interval

    print(render_figure(
        f"Stress test — {n_users} simultaneous requests "
        f"(makespan {fmt_duration(makespan)})",
        [sampler.cpu, sampler.disk_write, sampler.net_in, sampler.net_out]))
    print("\nthe uplink's samples behind the figure (KB/s):")
    print(series_table([sampler.net_in, sampler.net_out], max_rows=8))
    print("\nper-request latency:")
    for label, latency in sorted(latencies):
        print(f"  {label:12s} {fmt_duration(latency)}")
    slowest = max(latency for _, latency in latencies)
    print(f"\nslowest request: {fmt_duration(slowest)} — the thin "
          f"{KBps(300) / KB(1):.0f} KB/s uplink is the bottleneck, as "
          f"§VIII.D predicts")


if __name__ == "__main__":
    main()
