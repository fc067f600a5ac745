#!/usr/bin/env python
"""Appliance crash and recovery: the virtual-appliance lifecycle.

Virtual appliances get killed — the host reboots, the VM is migrated,
the spot instance disappears.  This example shows what survives:

1. deploy onServe, publish two services, invoke one,
2. crash the appliance (every in-memory component is lost; only the
   database's write-ahead log survives on disk),
3. redeploy on demand — WAL recovery restores the executables and the
   invocation history, and the service build replays automatically, so
   both services are discoverable and invocable again with no
   re-upload.

Run:  python examples/appliance_restart.py
"""

from repro.core import deploy_onserve, discover_and_invoke
from repro.grid import build_testbed
from repro.units import KB, Mbps, fmt_duration
from repro.workloads import make_payload


def main() -> None:
    testbed = build_testbed(n_sites=3, nodes_per_site=4, cores_per_node=8,
                            appliance_uplink=Mbps(16))
    sim = testbed.sim

    # ---- first life ----------------------------------------------------
    stack = sim.run(until=deploy_onserve(testbed))
    for name, profile, params in (("hello.sh", "echo", "name:string"),
                                  ("pi.sh", "mcpi", "samples:int, seed:int")):
        payload = make_payload(profile, size=int(KB(4)))
        sim.run(until=stack.portal.upload_and_generate(
            testbed.user_hosts[0], name, payload, params_spec=params))
    print("first life: services =",
          [s.service_name for s in stack.onserve.list_services()])
    out = sim.run(until=discover_and_invoke(stack, stack.user_clients[0],
                                            "Hello%", name="world"))
    print(f"  invoked HelloService -> {out.strip()!r}")

    # ---- the crash ------------------------------------------------------
    print("\n*** appliance crash at "
          f"t={fmt_duration(sim.now)} — only the WAL survives ***\n")
    recovered_db = stack.dbmanager.recover_from_crash()
    print("replayed from the WAL:",
          recovered_db.db.count(recovered_db.TABLE), "stored executables")
    stack.fabric.unregister(stack.soap_server)  # the old container is gone

    # ---- second life -----------------------------------------------------
    t0 = sim.now
    stack2 = sim.run(until=deploy_onserve(testbed, dbmanager=recovered_db))
    print(f"redeployed in {fmt_duration(sim.now - t0)}; restored services =",
          stack2.soap_server.services())
    hits = stack2.uddi.find_service("%Service")
    print("UDDI after recovery:", [h.name for h in hits])

    out = sim.run(until=discover_and_invoke(stack2, stack2.user_clients[0],
                                            "Pi%", samples=50000, seed=7))
    print(f"invoked PiService after recovery -> "
          f"{out.splitlines()[-1]}")

    history = stack2.dbmanager.db.select("invocations")
    print(f"invocation history spans both lives: {len(history)} rows "
          f"({sum(r['ok'] for r in history)} ok)")


if __name__ == "__main__":
    main()
