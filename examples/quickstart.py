#!/usr/bin/env python
"""Quickstart: SaaS on a production grid, end to end.

This walks the paper's two use scenarios (§VII) on a simulated TeraGrid:

1. deploy the onServe virtual appliance on demand,
2. upload an executable through the portal — onServe stores it, builds a
   web service for it, and publishes it in UDDI,
3. act as a service consumer: discover the service in UDDI, generate a
   client stub from its WSDL, and invoke ``execute`` — which transparently
   turns into a grid job (GridFTP staging, RSL, GRAM submission,
   tentative output polling) and returns the job's output.

Run:  python examples/quickstart.py
"""

from repro.core import deploy_onserve, OnServeConfig
from repro.core.invocation import discover_and_invoke, discover_service
from repro.grid import build_testbed
from repro.units import KB, Mbps, fmt_duration
from repro.workloads import make_payload


def main() -> None:
    # ---- a production grid: 11 sites, rigid JSE interfaces ------------
    testbed = build_testbed(n_sites=11, nodes_per_site=4, cores_per_node=8,
                            appliance_uplink=Mbps(8))
    sim = testbed.sim
    print(f"testbed up: {len(testbed.sites)} sites, "
          f"{sum(s.pool.total_cores for s in testbed.sites)} cores total")

    # ---- 1. deploy the appliance on demand -----------------------------
    stack = sim.run(until=deploy_onserve(testbed, OnServeConfig()))
    print(f"appliance deployed and booted in "
          f"{fmt_duration(stack.appliance.startup_seconds)} "
          f"(image {stack.appliance.image.image_id})")

    # ---- 2. upload an executable, get a web service --------------------
    payload = make_payload("echo", size=int(KB(4)))
    service = sim.run(until=stack.portal.upload_and_generate(
        testbed.user_hosts[0], "hello.sh", payload,
        description="prints its arguments, one per line",
        params_spec="greeting:string, name:string"))
    print(f"uploaded hello.sh -> generated {service.service_name}")
    print(f"  endpoint : {service.endpoint}")
    print(f"  WSDL     : {service.wsdl_location}")
    print(f"  UDDI key : {service.uddi_service_key}")

    # ---- 3. discover and invoke like any web-service client ------------
    client = stack.user_clients[0]
    name, endpoint, _ = sim.run(until=discover_service(stack, client,
                                                       "Hello%"))
    print(f"UDDI inquiry found {name!r} at {endpoint}")

    t0 = sim.now
    output = sim.run(until=discover_and_invoke(
        stack, client, "Hello%", greeting="hello", name="grid"))
    print(f"execute(greeting='hello', name='grid') returned in "
          f"{fmt_duration(sim.now - t0)}:")
    for line in output.splitlines():
        print(f"  | {line}")

    report = stack.onserve.runtimes[service.service_name].last_report
    print("behind the scenes:")
    print(f"  grid job        : {report.job_id}")
    print(f"  DB retrieval    : {fmt_duration(report.retrieval)}")
    print(f"  authentication  : {fmt_duration(report.auth)}")
    print(f"  grid upload     : {fmt_duration(report.upload)}")
    print(f"  submit          : {fmt_duration(report.submit)}")
    print(f"  output polling  : {fmt_duration(report.polling)} "
          f"({report.polls} tentative polls — the paper's workaround)")


if __name__ == "__main__":
    main()
