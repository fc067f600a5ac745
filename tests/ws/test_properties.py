"""Property-based tests: envelope and WSDL round-trips, wire sizing."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SoapFault, WsError
from repro.ws import (
    OperationSpec, ParameterSpec, ServiceDescription, generate_wsdl,
    parse_wsdl,
)
from repro.ws.soap import SoapEnvelope

identifiers = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,10}", fullmatch=True)

# Text that XML 1.0 can carry (the codec rejects the rest by design).
xml_text = st.text(
    alphabet=st.characters(
        exclude_characters="".join(map(chr, range(0x00, 0x09)))
        + "\x0b\x0c\x0d" + "".join(map(chr, range(0x0e, 0x20)))
        + "￾￿",
        exclude_categories=("Cs",),
    ),
    max_size=60,
)

param_values = st.one_of(
    xml_text,
    st.integers(min_value=-(2**31), max_value=2**31 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.binary(max_size=60),
)


@settings(max_examples=60)
@given(identifiers, st.dictionaries(identifiers, param_values, max_size=6))
def test_soap_request_roundtrip(operation, params):
    env = SoapEnvelope.request(operation, params)
    decoded = SoapEnvelope.decode(env.encode())
    assert decoded.operation == operation
    assert decoded.params == params


@settings(max_examples=60)
@given(identifiers, param_values)
def test_soap_response_roundtrip(operation, result):
    env = SoapEnvelope.response(operation, result)
    assert SoapEnvelope.decode(env.encode()).result() == result


xsd_types = st.sampled_from(
    ["xsd:string", "xsd:int", "xsd:double", "xsd:boolean", "xsd:base64Binary"])


@st.composite
def service_descriptions(draw):
    n_ops = draw(st.integers(min_value=1, max_value=4))
    ops = []
    names = draw(st.lists(identifiers, min_size=n_ops, max_size=n_ops,
                          unique=True))
    for name in names:
        param_names = draw(st.lists(identifiers, max_size=4, unique=True))
        params = [ParameterSpec(p, draw(xsd_types)) for p in param_names]
        ops.append(OperationSpec(name, params, return_type=draw(xsd_types)))
    svc_name = draw(identifiers)
    doc = draw(st.from_regex(r"[A-Za-z0-9 ,.]{0,40}", fullmatch=True))
    return ServiceDescription(svc_name, ops, documentation=doc.strip())


@settings(max_examples=40)
@given(service_descriptions(), identifiers)
def test_wsdl_roundtrip_property(service, hostname):
    endpoint = f"soap://{hostname}/{service.name}"
    parsed, got_endpoint = parse_wsdl(generate_wsdl(service, endpoint))
    assert parsed == service
    assert got_endpoint == endpoint


# -- the size contract: size() == len(encode()), rendering nothing -----------

# Every name a ParameterSpec / OperationSpec admits (alnum + underscore,
# any script): ElementTree writes these verbatim, UTF-8 encoded.
spec_names = st.text(st.characters(categories=("L", "Nd"),
                                   include_characters="_"),
                     min_size=1, max_size=8)
# Attribute values and fault strings are not vetted by the codec at all:
# controls, quotes and lone surrogates (written as &#N; references) occur.
any_text = st.text(st.characters(exclude_categories=()), max_size=40)
escapable = st.text(st.sampled_from('&<>"\'\n\t aé€𝄞'), max_size=30)

sized_values = st.one_of(
    xml_text, escapable,
    st.integers(), st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0, 0.0]),
    st.binary(max_size=200),
    st.integers(min_value=0, max_value=5000).map(bytes),
    st.binary(max_size=50).map(bytearray),
)

envelopes = st.one_of(
    st.builds(SoapEnvelope.request, spec_names,
              st.dictionaries(spec_names, sized_values, max_size=6),
              namespace=st.one_of(any_text, escapable)),
    st.builds(SoapEnvelope.response, spec_names, sized_values),
    st.builds(SoapEnvelope.fault_response,
              st.builds(SoapFault, any_text, st.one_of(any_text, escapable),
                        st.one_of(st.just(""), any_text, escapable))),
)


@settings(max_examples=300)
@given(envelopes)
@example(SoapEnvelope.request("ping", {}))
@example(SoapEnvelope.request("put", {"data": bytes(1 << 20), "note": ""}))
@example(SoapEnvelope.response("get", "é" * 70_000))
@example(SoapEnvelope.fault_response(SoapFault("", "", "")))
@example(SoapEnvelope.fault_response(SoapFault("Server", "lone \ud800", "")))
@example(SoapEnvelope.request("op", {}, namespace='urn:"q"\r\n\t<&>\udfff'))
def test_size_equals_encoded_length(env):
    assert env.size() == len(env.encode())


forbidden_text = st.builds(
    lambda head, bad, tail: head + bad + tail, xml_text,
    st.sampled_from(["\x00", "\x07", "\x0b", "\r", "\x1f", "\ud800",
                     "\udfff", "\ufffe", "\uffff"]), xml_text)
unmappable = st.one_of(
    st.none(), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.tuples(st.integers()), st.just(object()), st.just(1j))


@given(spec_names, spec_names, st.one_of(forbidden_text, unmappable),
       st.dictionaries(spec_names, sized_values, max_size=3))
def test_size_and_encode_refuse_the_same_values(operation, name, bad, others):
    env = SoapEnvelope.request(operation, {**others, name: bad})
    with pytest.raises(WsError) as from_encode:
        env.encode()
    with pytest.raises(WsError) as from_size:
        env.size()
    assert type(from_size.value) is type(from_encode.value)
    assert str(from_size.value) == str(from_encode.value)


def test_a_call_round_trip_renders_no_xml_and_no_base64(monkeypatch):
    """The hot path's budget for rendered bytes is zero."""
    import base64
    import xml.etree.ElementTree as ET

    from repro.hardware import Host, Network
    from repro.hardware.host import HostSpec
    from repro.simkernel import Simulator
    from repro.units import Mbps
    from repro.ws import SoapFabric, SoapServer, WsClient

    sim = Simulator()
    net = Network(sim)
    fabric = SoapFabric()
    server = SoapServer(Host(sim, "s", net, HostSpec()), fabric)
    client = WsClient(Host(sim, "c", net, HostSpec()), fabric)
    net.connect("s", "c", bandwidth=Mbps(100))
    endpoint = server.deploy(
        ServiceDescription("Blob", [OperationSpec(
            "put", [ParameterSpec("data", "xsd:base64Binary"),
                    ParameterSpec("note", "xsd:string")],
            return_type="xsd:base64Binary")]),
        lambda operation, params: params["data"][::-1])

    def rendered(*_args, **_kwargs):
        raise AssertionError("the wire path rendered something")

    monkeypatch.setattr(ET, "tostring", rendered)
    monkeypatch.setattr(base64, "b64encode", rendered)
    data = bytes(range(256)) * 64
    call = client.call(endpoint, "put", data=data, note="a<b & c>d é")
    assert sim.run(until=call) == data[::-1]
    assert server.service("Blob").faults == 0
    # ...and the guard itself bites: encode() is what would have tripped it.
    with pytest.raises(AssertionError, match="rendered"):
        SoapEnvelope.request("put", {"data": data}).encode()
