#!/usr/bin/env python
"""Service management: the portal's list / describe / report / undeploy.

Paper §VI: the portal lets a user "manage" the services onServe
generated for them, and §VIII.D.4 suggests handing consumers the client
files ready-made instead of making each run wsimport.  Both live on the
``OnServeManagement`` SOAP service, which this example drives from a
user's host on a two-replica fabric:

1. two services are published and invoked; one consumer runs a long
   job through the asynchronous ``submit`` / ``poll`` / ``result``
   operations every generated WSDL advertises,
2. the owner lists the services, describes one, reads the usage
   report and downloads a client bundle (stub source + WSDL),
3. the owner undeploys a service, and rediscovery through UDDI finds
   nothing: the SOAP container, UDDI, the shared store and the
   executable's DB row all dropped it, on both replicas.

Run:  python examples/service_management.py
"""

import io
import zipfile

from repro.core import OnServeConfig
from repro.core.context import RequestContext
from repro.core.fabric import deploy_fabric
from repro.core.invocation import discover_and_invoke, discover_service
from repro.errors import ServiceNotFound
from repro.grid import build_testbed
from repro.units import KB, Mbps
from repro.workloads import make_payload
from repro.ws.client import generate_stub


def main() -> None:
    testbed = build_testbed(n_sites=2, nodes_per_site=2, cores_per_node=4,
                            appliance_uplink=Mbps(10), n_users=2)
    sim = testbed.sim
    stack = sim.run(until=deploy_fabric(testbed, OnServeConfig(),
                                        replicas=2))
    owner, consumer = stack.user_clients
    print(f"fabric up: {len(stack.onserves)} onServe replicas "
          f"behind the router")

    # -- publish and use two services --------------------------------------
    sim.run(until=stack.portal.upload_and_generate(
        testbed.user_hosts[0], "hello.sh",
        make_payload("echo", size=int(KB(2))),
        description="prints its arguments", params_spec="name:string"))
    sim.run(until=stack.portal.upload_and_generate(
        testbed.user_hosts[0], "slow.sh",
        make_payload("fixed", size=int(KB(2)), runtime="300",
                     output_bytes="256"),
        description="a five-minute job", params_spec=""))
    for name in ("ada", "grace"):
        sim.run(until=discover_and_invoke(stack, consumer, "Hello%",
                                          name=name))

    # -- a long job through submit / poll / result -------------------------
    ctx = RequestContext.create(sim, principal=consumer.host.name)

    def long_job():
        _name, endpoint, _ = yield discover_service(stack, consumer, "Slow%")
        stub = generate_stub((yield consumer.fetch_wsdl(endpoint)))(consumer)
        print(f"\ndescribe() -> {(yield from stub.describe())!r}")
        t0 = sim.now
        ticket = yield from stub.submit(ctx=ctx)
        print(f"submit() returned {ticket} after {sim.now - t0:.2f} s; "
              f"polling while the job runs")
        polls = 1
        while not (yield from stub.poll(ticket=ticket)):
            yield sim.timeout(60.0)
            polls += 1
        output = yield from stub.result(ticket=ticket)
        print(f"result() after {polls} polls, {sim.now - t0:.0f} s: "
              f"{len(output)} B of output")

    sim.run(until=sim.process(long_job()))
    print("the submit request's trace:")
    print(ctx.waterfall())

    # -- the owner manages the services over SOAP --------------------------
    management = stack.soap_server.endpoint_for("OnServeManagement")

    def manage(operation, **params):
        return sim.run(until=sim.process(
            owner.call(management, operation, **params)))

    print("\nlistServices (name | endpoint | executable | runs):")
    for line in manage("listServices").splitlines():
        print(f"  {line}")
    print("describeService HelloService:")
    for line in manage("describeService", name="HelloService").splitlines():
        print(f"  {line}")
    print("usageReport (service | runs | ok | mean s | overhead s | polls):")
    for line in manage("usageReport").splitlines():
        print(f"  {line}")

    bundle = zipfile.ZipFile(io.BytesIO(
        manage("clientBundle", name="HelloService")))
    print(f"clientBundle HelloService: {bundle.namelist()}")
    source = bundle.read("helloservice_stub.py").decode()
    print("  " + "\n  ".join(line for line in source.splitlines()
                             if line.lstrip().startswith(("class ", "def "))))

    # -- undeploy, then rediscover -----------------------------------------
    print(f"\nundeployService SlowService -> "
          f"{manage('undeployService', name='SlowService')}")
    try:
        sim.run(until=discover_service(stack, consumer, "Slow%"))
    except ServiceNotFound as exc:
        print(f"rediscovery: {exc}")
    print("listServices now:", [line.split("|")[0] for line in
                                manage("listServices").splitlines()])
    print("replicas still hosting it:",
          [o.replica for o in stack.onserves
           if "SlowService" in o.soap_server.services()] or "none")


if __name__ == "__main__":
    main()
