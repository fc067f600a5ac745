"""Unit tests for service descriptions and WSDL round-trips."""

import pytest

from repro.errors import WsError, WsdlError
from repro.ws import (
    OperationSpec, ParameterSpec, ServiceDescription, generate_wsdl,
    parse_wsdl,
)


def sample_service():
    return ServiceDescription(
        "HelloService",
        [
            OperationSpec("execute",
                          [ParameterSpec("name", "xsd:string"),
                           ParameterSpec("count", "xsd:int")],
                          return_type="xsd:string"),
            OperationSpec("status", [], return_type="xsd:string"),
        ],
        documentation="Says hello on the grid",
    )


# ---------------------------------------------------------------- specs

def test_parameter_validation():
    p = ParameterSpec("count", "xsd:int")
    p.validate(3)
    with pytest.raises(WsError):
        p.validate("three")
    with pytest.raises(WsError):
        p.validate(True)  # bool is not an int here


def test_double_accepts_int():
    ParameterSpec("x", "xsd:double").validate(3)


def test_binary_accepts_bytearray():
    ParameterSpec("b", "xsd:base64Binary").validate(bytearray(b"a"))


def test_bad_parameter_definitions():
    with pytest.raises(WsError):
        ParameterSpec("bad name")
    with pytest.raises(WsError):
        ParameterSpec("x", "xsd:unknown")


def test_operation_argument_checking():
    op = OperationSpec("run", [ParameterSpec("a"), ParameterSpec("b", "xsd:int")])
    op.validate_arguments({"a": "x", "b": 1})
    with pytest.raises(WsError, match="missing"):
        op.validate_arguments({"a": "x"})
    with pytest.raises(WsError, match="unexpected"):
        op.validate_arguments({"a": "x", "b": 1, "c": 2})


def test_operation_duplicate_params_rejected():
    with pytest.raises(WsError):
        OperationSpec("run", [ParameterSpec("a"), ParameterSpec("a")])


def test_service_requires_operations():
    with pytest.raises(WsError):
        ServiceDescription("S", [])
    with pytest.raises(WsError):
        ServiceDescription("bad name!", [OperationSpec("x")])


def test_service_duplicate_operations_rejected():
    with pytest.raises(WsError):
        ServiceDescription("S", [OperationSpec("x"), OperationSpec("x")])


def test_service_operation_lookup():
    svc = sample_service()
    assert svc.operation("execute").name == "execute"
    with pytest.raises(WsError):
        svc.operation("nope")


# ---------------------------------------------------------------- WSDL

def test_wsdl_roundtrip():
    svc = sample_service()
    doc = generate_wsdl(svc, "soap://appliance/HelloService")
    parsed, endpoint = parse_wsdl(doc)
    assert parsed == svc
    assert endpoint == "soap://appliance/HelloService"
    assert parsed.documentation == "Says hello on the grid"


def test_wsdl_preserves_param_order_and_types():
    svc = sample_service()
    parsed, _ = parse_wsdl(generate_wsdl(svc, "soap://h/S"))
    execute = parsed.operation("execute")
    assert [p.name for p in execute.params] == ["name", "count"]
    assert [p.xsd_type for p in execute.params] == ["xsd:string", "xsd:int"]
    assert execute.return_type == "xsd:string"


def test_wsdl_zero_param_operation():
    parsed, _ = parse_wsdl(generate_wsdl(sample_service(), "soap://h/S"))
    assert parsed.operation("status").params == ()


def test_parse_rejects_non_wsdl():
    with pytest.raises(WsdlError):
        parse_wsdl(b"<notwsdl/>")


def test_parse_rejects_broken_documents():
    svc = sample_service()
    doc = generate_wsdl(svc, "soap://h/S").decode()
    # Remove the service element entirely.
    broken = doc[: doc.index("<service")] + "</definitions>"
    with pytest.raises(WsdlError):
        parse_wsdl(broken.encode())


# -- one render per (deployment, endpoint) -----------------------------------

def deployed_server(monkeypatch):
    """A server with ``sample_service()`` deployed + a render counter."""
    from repro.hardware import Host, Network
    from repro.hardware.host import HostSpec
    from repro.simkernel import Simulator
    from repro.ws import SoapServer, server as server_module

    sim = Simulator()
    server = SoapServer(Host(sim, "s", Network(sim), HostSpec()))
    server.deploy(sample_service(), lambda operation, params: "ok")
    renders = []

    def counting(description, endpoint):
        renders.append(endpoint)
        return generate_wsdl(description, endpoint)

    monkeypatch.setattr(server_module, "generate_wsdl", counting)
    return server, renders


def narrowed_service():
    return ServiceDescription("HelloService", [
        OperationSpec("execute", [ParameterSpec("name", "xsd:string")]),
    ])


def test_server_renders_each_wsdl_once(monkeypatch):
    server, renders = deployed_server(monkeypatch)
    first = server.wsdl("HelloService")
    assert server.wsdl("HelloService") is first
    assert renders == ["soap://s/HelloService"]
    assert first == generate_wsdl(sample_service(), "soap://s/HelloService")


def test_update_description_drops_the_rendered_wsdl(monkeypatch):
    server, renders = deployed_server(monkeypatch)
    stale = server.wsdl("HelloService")
    server.update_description("HelloService", narrowed_service())
    fresh = server.wsdl("HelloService")
    assert fresh != stale
    assert parse_wsdl(fresh)[0] == narrowed_service()
    assert server.wsdl("HelloService") is fresh
    assert len(renders) == 2


def test_undeploy_then_redeploy_renders_the_new_interface(monkeypatch):
    server, renders = deployed_server(monkeypatch)
    stale = server.wsdl("HelloService")
    server.undeploy("HelloService")
    server.deploy(narrowed_service(), lambda operation, params: "ok")
    fresh = server.wsdl("HelloService")
    assert fresh != stale
    assert parse_wsdl(fresh)[0] == narrowed_service()
    assert len(renders) == 2


def test_an_equal_update_keeps_the_rendered_wsdl(monkeypatch):
    """A re-upload of new bytes under the same interface re-renders
    nothing; a changed parameter spec still does."""
    server, renders = deployed_server(monkeypatch)
    first = server.wsdl("HelloService")
    deployed = server.service("HelloService").description
    server.update_description("HelloService", sample_service())
    assert server.service("HelloService").description is deployed
    assert server.wsdl("HelloService") is first
    assert len(renders) == 1
    reworded = sample_service()
    reworded.documentation = "Says hello, differently"
    server.update_description("HelloService", reworded)
    assert b"differently" in server.wsdl("HelloService")
    server.update_description("HelloService", narrowed_service())
    assert parse_wsdl(server.wsdl("HelloService"))[0] == narrowed_service()
    assert len(renders) == 3
