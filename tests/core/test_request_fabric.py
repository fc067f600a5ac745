"""End-to-end request-fabric tests: traces, metrics, undeploy hygiene.

The fabric's promise: one :class:`RequestContext` per entry-point
request, nested sim-time spans across every layer the request crosses
(portal → build → UDDI → agent → GridFTP → GRAM), and one
``ws.request`` record per SOAP crossing, queryable from the bus.
"""

from repro.core import deploy_onserve, discover_and_invoke
from repro.core.context import RequestContext
from repro.grid import build_testbed
from repro.telemetry.events import bus
from repro.units import KB, Mbps
from repro.workloads import make_payload


def stack_env(**testbed_kw):
    testbed_kw.setdefault("n_sites", 3)
    testbed_kw.setdefault("nodes_per_site", 2)
    testbed_kw.setdefault("cores_per_node", 4)
    testbed_kw.setdefault("appliance_uplink", Mbps(8))
    tb = build_testbed(**testbed_kw)
    stack = tb.sim.run(until=deploy_onserve(tb))
    return tb, stack


def upload(tb, stack, ctx=None):
    return tb.sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "hello.sh", make_payload("echo", size=int(KB(2))),
        description="demo", params_spec="name:string", ctx=ctx))


# -- undeploy hygiene (regression) ------------------------------------------

def test_direct_soap_undeploy_unpublishes_uddi_bindings():
    """Undeploying at the SOAP layer must not leave stale UDDI entries.

    Regression: a direct ``SoapServer.undeploy`` (bypassing
    ``OnServe.undeploy_service``) used to leave the bindingTemplate in
    the registry pointing at a dead endpoint.
    """
    tb, stack = stack_env()
    upload(tb, stack)
    assert stack.uddi.find_service("HelloService")

    stack.soap_server.undeploy("HelloService")

    assert stack.uddi.find_service("HelloService") == []
    assert "HelloService" not in stack.onserve.services
    assert "HelloService" not in stack.onserve.runtimes
    # the stored executable is untouched — only the service face is gone
    assert stack.dbmanager.has_executable("hello.sh")


def test_onserve_undeploy_service_still_cleans_everything():
    tb, stack = stack_env()
    upload(tb, stack)

    def op():
        yield stack.onserve.undeploy_service("HelloService")

    tb.sim.run(until=tb.sim.process(op()))
    assert stack.uddi.find_service("HelloService") == []
    assert "HelloService" not in stack.soap_server.services()
    assert not stack.dbmanager.has_executable("hello.sh")


# -- end-to-end traces -------------------------------------------------------

def test_portal_upload_produces_build_and_publish_trace():
    tb, stack = stack_env()
    upload(tb, stack)

    (ctx,) = stack.portal.recent_requests
    assert ctx.principal == tb.user_hosts[0].name
    root = ctx.root
    upload_span = root.find("portal:upload")
    assert upload_span is not None
    for name in ("portal:receive", "portal:handle", "onserve:store",
                 "onserve:build", "onserve:uddi-publish"):
        span = root.find(name)
        assert span is not None, f"missing span {name}"
        assert span.closed
    build = root.find("onserve:build")
    assert build.duration > 0  # wsgen/wsdeploy consumed simulated time
    assert ctx.request_id in ctx.waterfall()


def test_invocation_trace_covers_every_layer_down_to_gram():
    tb, stack = stack_env()
    upload(tb, stack)
    client = stack.user_clients[0]
    ctx = RequestContext.create(tb.sim, principal=client.host.name)

    out = tb.sim.run(until=discover_and_invoke(stack, client, "Hello%",
                                               ctx=ctx, name="world"))
    assert out == "world\n"

    root = ctx.root
    # one request id, nested spans across UDDI, SOAP, agent, grid layers
    layer_spans = [
        "uddi:discover",
        "client:HelloService.execute",
        "server:HelloService.execute",
        "service:retrieval", "service:auth", "service:upload",
        "service:submit", "service:polling",
        "agent:authenticate", "agent:listSites",
        "gridftp:put",
        "gram:submit",
        "gram:fetch-output",
    ]
    for name in layer_spans:
        span = root.find(name)
        assert span is not None, f"missing span {name}"
        assert span.closed

    # nesting: the grid work happens inside the server-side execute span
    server_span = root.find("server:HelloService.execute")
    assert server_span.find("gram:submit") is not None
    assert server_span.find("gridftp:put") is not None
    # the client span brackets the server span in sim time
    client_span = root.find("client:HelloService.execute")
    assert client_span.start <= server_span.start
    assert server_span.end <= client_span.end

    waterfall = ctx.waterfall()
    assert ctx.request_id in waterfall
    for name in ("gram:submit", "gridftp:put", "uddi:discover"):
        assert name in waterfall


def test_per_operation_metrics_queryable_after_run():
    tb, stack = stack_env()
    upload(tb, stack)
    client = stack.user_clients[0]
    rec = bus(tb.sim).record("ws.request")
    tb.sim.run(until=discover_and_invoke(stack, client, "Hello%",
                                         name="world"))

    served = [ev for ev in rec.events("ws.request")
              if ev.get("side") == "server"]
    execute = [ev for ev in served if ev.get("service") == "HelloService"]
    assert [ev.get("operation") for ev in execute] == ["execute"]
    assert execute[0].get("fault") is None
    assert execute[0].get("latency") > 0
    assert execute[0].get("origin") == stack.soap_server.host.name
    # agent operations the invocation crossed are recorded too
    agent_ops = {ev.get("operation") for ev in served
                 if ev.get("service") == "CyberaideAgent"}
    assert {"authenticate", "listSites", "uploadExecutable",
            "submitJob"} <= agent_ops
    # UDDI inquiry calls went through the same container
    assert any(ev.get("service") == "UddiInquiry"
               and ev.get("operation") == "findService" for ev in served)
    # the client kept its own record of the same call
    called = rec.first("ws.request", side="client", service="HelloService")
    assert called.get("origin") == client.host.name
    assert called.get("latency") > execute[0].get("latency")
