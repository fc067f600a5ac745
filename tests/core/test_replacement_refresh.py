"""Replacement uploads must refresh every in-memory surface.

Two regressions around ``OnServe.generate_service``'s replacement path:

* the runtime kept serving the *old* :class:`ExecutableRecord` — later
  invocations validated against the stale parameter spec, ``describe``
  returned the old description, and the UDDI entry kept the old text;
* staged-copy eviction matched staging paths by *suffix*, so replacing
  an executable whose name is a path-suffix of another's (e.g.
  ``cyberaide/echo.sh`` vs ``echo.sh``) evicted the wrong entry.
"""

import pytest

from repro.core import OnServeConfig, deploy_onserve, discover_and_invoke
from repro.cyberaide.jobspec import staged_path_for
from repro.grid import build_testbed
from repro.units import KB, Mbps
from repro.workloads import make_payload


def stack_env(config=None):
    tb = build_testbed(n_sites=2, nodes_per_site=2, cores_per_node=4,
                       appliance_uplink=Mbps(10))
    stack = tb.sim.run(until=deploy_onserve(tb, config))
    return tb, stack


def upload(tb, stack, name, payload=None, **kw):
    payload = payload or make_payload("echo", size=int(KB(2)))
    return tb.sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], name, payload, **kw))


# -- stale in-memory record ------------------------------------------------


def test_replacement_refreshes_runtime_record():
    tb, stack = stack_env()
    upload(tb, stack, "hello.sh", params_spec="name:string",
           description="v1")
    runtime = stack.onserve.runtimes["HelloService"]
    assert [p.name for p in runtime.record.params] == ["name"]

    big = make_payload("echo", size=int(KB(8)))
    upload(tb, stack, "hello.sh", payload=big,
           params_spec="name:string, shout:boolean", description="v2")
    # The runtime serves the new record, not the one from upload #1.
    assert [p.name for p in runtime.record.params] == ["name", "shout"]
    assert runtime.record.description == "v2"
    assert runtime.record.size == len(big)


def test_replacement_new_parameter_is_accepted_end_to_end():
    tb, stack = stack_env()
    upload(tb, stack, "hello.sh", params_spec="name:string")
    upload(tb, stack, "hello.sh",
           params_spec="name:string, shout:boolean")
    client = stack.user_clients[0]
    # Pre-fix this faulted: the server dispatched against the stale
    # one-parameter spec and rejected ``shout`` as undeclared.
    out = tb.sim.run(until=discover_and_invoke(stack, client, "Hello%",
                                               name="x", shout=True))
    assert out == "x\ntrue\n"


def test_replacement_narrowed_spec_rejects_old_parameter():
    tb, stack = stack_env()
    upload(tb, stack, "hello.sh", params_spec="name:string, extra:string")
    upload(tb, stack, "hello.sh", params_spec="name:string")
    client = stack.user_clients[0]
    with pytest.raises(Exception):  # stale spec would have accepted it
        tb.sim.run(until=discover_and_invoke(stack, client, "Hello%",
                                             name="x", extra="y"))


def test_replacement_refreshes_describe_and_uddi():
    tb, stack = stack_env()
    upload(tb, stack, "hello.sh", description="old words")
    upload(tb, stack, "hello.sh", description="new words")
    svc = stack.onserve.get_service("HelloService")
    assert stack.uddi.get_service(svc.uddi_service_key).description \
        == "new words"
    deployed = stack.soap_server.service("HelloService")
    assert deployed.description.name == "HelloService"
    client = stack.user_clients[0]
    out = tb.sim.run(until=discover_and_invoke(stack, client, "Hello%"))
    # describe() rides the execute service; check via the runtime record.
    assert stack.onserve.runtimes["HelloService"].record.description \
        == "new words"


def test_replacement_refreshes_the_served_wsdl():
    # The container renders each WSDL once per deployment; a replacement
    # upload must not leave the pre-replacement document being served.
    from repro.ws import parse_wsdl

    tb, stack = stack_env()
    upload(tb, stack, "hello.sh", params_spec="name:string")
    before = stack.soap_server.wsdl("HelloService")
    assert stack.soap_server.wsdl("HelloService") is before
    upload(tb, stack, "hello.sh", params_spec="name:string, shout:boolean")
    after, _endpoint = parse_wsdl(stack.soap_server.wsdl("HelloService"))
    assert [p.name for p in after.operation("execute").params] \
        == ["name", "shout"]


# -- exact-path staged eviction --------------------------------------------


def test_eviction_only_drops_the_exact_staged_path():
    tb, stack = stack_env()
    onserve = stack.onserve
    # Two executables whose staged paths are suffix-related.
    onserve.mark_staged("siteA", staged_path_for("echo.sh"), "inner")
    onserve.mark_staged("siteA", staged_path_for("cyberaide/echo.sh"),
                        "outer")
    upload(tb, stack, "cyberaide/echo.sh", payload=b"#!x v1")
    upload(tb, stack, "cyberaide/echo.sh", payload=b"#!x v2")
    # Replacing cyberaide/echo.sh dropped *its* staged copy only;
    # suffix matching used to evict echo.sh's entry too, because
    # "/scratch/cyberaide/echo.sh".endswith("/cyberaide/echo.sh").
    assert onserve.is_staged("siteA", staged_path_for("echo.sh"), "inner")
    assert not onserve.is_staged("siteA",
                                 staged_path_for("cyberaide/echo.sh"),
                                 "outer")


def test_suffix_named_replacement_keeps_other_service_cached():
    tb, stack = stack_env(OnServeConfig(upload_cache=True))
    upload(tb, stack, "echo.sh", params_spec="name:string")
    client = stack.user_clients[0]
    tb.sim.run(until=discover_and_invoke(stack, client, "Echo%", name="a"))
    assert stack.agent.uploads == 1  # echo.sh is staged now

    # A different service whose name path-suffixes echo.sh's staged path.
    upload(tb, stack, "cyberaide/echo.sh", payload=b"#!x v1")
    upload(tb, stack, "cyberaide/echo.sh", payload=b"#!x v2")  # replacement

    tb.sim.run(until=discover_and_invoke(stack, client, "Echo%", name="b"))
    # The staged copy survived the unrelated replacement: no re-upload.
    assert stack.agent.uploads == 1
