"""ASYNC — extension study: synchronous vs ticket-based invocation.

The paper's generated services are synchronous: ``execute`` holds the
SOAP exchange open for the whole grid job.  The async extension
(``submit``/``poll``/``result``) frees the client immediately.  This
bench measures the client-side blocking time of each mode for the same
job and reports the difference.
"""

from repro.core import OnServeConfig, deploy_onserve
from repro.core.invocation import discover_service
from repro.grid import build_testbed
from repro.units import KB, Mbps
from repro.workloads import make_payload
from repro.ws.client import generate_stub


def _setup(runtime="90"):
    tb = build_testbed(n_sites=2, nodes_per_site=2, cores_per_node=4,
                       appliance_uplink=Mbps(10))
    stack = tb.sim.run(until=deploy_onserve(
        tb, OnServeConfig(poll_interval=9.0)))
    payload = make_payload("fixed", size=int(KB(8)), runtime=runtime,
                           output_bytes="1024")
    tb.sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "job.bin", payload))
    client = stack.user_clients[0]

    def flow():
        _n, endpoint, _w = yield discover_service(stack, client, "Job%")
        document = yield from client.wsdl(endpoint)
        return generate_stub(document)(client)

    stub = tb.sim.run(until=tb.sim.process(flow()))
    return tb, stub


def test_sync_vs_async_client_blocking(benchmark, save_report):
    def run():
        # Synchronous: execute() blocks for the whole job.
        tb, stub = _setup()
        t0 = tb.sim.now
        tb.sim.run(until=tb.sim.process(stub.execute()))
        sync_blocked = tb.sim.now - t0

        # Asynchronous: submit() returns a ticket at once; the client is
        # only "busy" during the submit call itself.
        tb, stub = _setup()
        t0 = tb.sim.now
        ticket = tb.sim.run(until=tb.sim.process(stub.submit()))
        submit_blocked = tb.sim.now - t0

        def collect():
            while not (yield from stub.poll(ticket=ticket)):
                yield tb.sim.timeout(20.0)
            return (yield from stub.result(ticket=ticket))

        t1 = tb.sim.now
        tb.sim.run(until=tb.sim.process(collect()))
        completion = tb.sim.now - t0
        return sync_blocked, submit_blocked, completion

    sync_blocked, submit_blocked, completion = benchmark.pedantic(
        run, rounds=1, iterations=1)
    report = "\n".join([
        "Extension — synchronous execute vs async submit/poll/result",
        "=" * 59,
        f"sync execute(): client blocked {sync_blocked:7.1f} s",
        f"async submit(): client blocked {submit_blocked:7.1f} s "
        f"(job finished after {completion:.1f} s)",
        f"blocking reduced by a factor of "
        f"{sync_blocked / max(submit_blocked, 1e-9):,.0f}x",
    ])
    save_report("extension_async", report)
    assert submit_blocked < 5.0
    assert sync_blocked > 60.0
