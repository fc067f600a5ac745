#!/usr/bin/env python
"""A shared appliance: multiple users, UDDI discovery, and the shell.

Paper §V: "The access layer can be deployed locally by a user, or
deployed in a shared remote location and used by multiple users."

Three users share one onServe appliance:

* user00 publishes a word-count service,
* user01 publishes an echo service,
* user02 publishes nothing — they *discover* both services in the UDDI
  registry and invoke them.

The example closes with the Cyberaide Shell, the toolkit's command-line
face, driving the agent directly (the power-user path that bypasses the
generated services): it runs, queries, fetches and cancels grid jobs,
then discovers and invokes the generated services from the prompt.
"""

from repro.core import deploy_onserve
from repro.core.invocation import discover_and_invoke
from repro.cyberaide import CyberaideShell
from repro.grid import build_testbed
from repro.units import KB, Mbps
from repro.workloads import make_payload
from repro.ws import WsClient


def main() -> None:
    testbed = build_testbed(n_sites=4, nodes_per_site=4, cores_per_node=8,
                            appliance_uplink=Mbps(16), n_users=3)
    sim = testbed.sim
    stack = sim.run(until=deploy_onserve(testbed))
    u0, u1, u2 = testbed.user_hosts

    # -- two publishers ---------------------------------------------------
    text = ("the grid runs the job and the job feeds the grid "
            "while the cloud watches the grid")
    wc = make_payload("wordcount", size=int(KB(8)), text=text)
    sim.run(until=stack.portal.upload_and_generate(
        u0, "word-count.sh", wc, description="counts words in its corpus"))
    echo = make_payload("echo", size=int(KB(2)))
    sim.run(until=stack.portal.upload_and_generate(
        u1, "echo.sh", echo, description="echoes its arguments",
        params_spec="a:string, b:string"))
    print("published services:",
          [s.service_name for s in stack.onserve.list_services()])

    # -- the consumer discovers everything through UDDI --------------------
    consumer = stack.user_clients[2]
    for pattern in ("%Service",):
        hits = stack.uddi.find_service(pattern)
        print(f"UDDI find_service({pattern!r}):",
              [f"{h.name} ({h.description})" for h in hits])

    out = sim.run(until=discover_and_invoke(stack, consumer, "WordCount%"))
    print("word counts from the grid:")
    for line in out.splitlines()[:5]:
        print(f"  {line}")

    out = sim.run(until=discover_and_invoke(stack, consumer, "Echo%",
                                            a="shared", b="appliance"))
    print(f"echo service says: {out.split()}")

    # -- the shell path ----------------------------------------------------
    print("\n--- Cyberaide Shell session (power user, no generated WS) ---")
    testbed.new_grid_identity("poweruser", "pw")
    shell = CyberaideShell(
        WsClient(u2, stack.fabric),
        stack.soap_server.endpoint_for("CyberaideAgent"),
        inquiry_endpoint=stack.soap_server.endpoint_for("UddiInquiry"))
    shell.add_file("probe.sh", make_payload("echo", size=256))
    shell.add_file("long.sh", make_payload("fixed", runtime="3600"))

    def sh(line):
        result = sim.run(until=shell.execute(line))
        print(f"cyberaide> {line}\n{result}")
        return result

    for line in ("help", "auth poweruser pw", "sites", "files"):
        sh(line)
    job_id = sh("run ncsa probe.sh ping").split(": ")[1]
    # The agent cannot report job status (the paper's known limitation):
    # the shell says so, and the output is fetched tentatively instead.
    sh(f"status ncsa {job_id}")
    sim.run(until=sim.timeout(30.0))
    sh(f"output ncsa {job_id}")
    long_id = sh("run sdsc long.sh").split(": ")[1]
    sh(f"cancel sdsc {long_id}")
    print("sdsc now reports it", testbed.site("sdsc").get_job(long_id).state)
    # Generated services, found and called from the same prompt.
    sh("discover %Service")
    sh("invoke Echo% a=from b=shell")

if __name__ == "__main__":
    main()
