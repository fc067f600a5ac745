"""SOAP envelopes: request/response/fault encoding and decoding.

A simplified SOAP 1.1, RPC-style: the body holds one operation element
whose children are typed parameters.  Faults carry faultcode,
faultstring and detail.  Envelopes round-trip exactly through
:meth:`SoapEnvelope.encode` / :meth:`SoapEnvelope.decode`, the reference
codec.  The simulated transport never renders them: it hands the params
dict to the server directly and charges the network
:meth:`SoapEnvelope.size`, which counts the bytes ``encode()`` would
produce — ``size() == len(encode())`` on every envelope — without
producing them.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Any, Dict, Optional

from repro.errors import SoapFault, WsError
from repro.ws.xmlcodec import (
    attrib_size, element_size, element_to_value, parse, render, text_size,
    value_size, value_to_element,
)

__all__ = ["SoapEnvelope"]

_ENV_TAG = "Envelope"
_BODY_TAG = "Body"
_FAULT_TAG = "Fault"
_RESULT_SUFFIX = "Response"
_SOAP_NS = "http://schemas.xmlsoap.org/soap/envelope/"

#: What :meth:`SoapEnvelope.size` adds around the counted elements.
_DECLARATION_BYTES = len("<?xml version='1.0' encoding='utf-8'?>\n")
_ENVELOPE_ATTRIB_BYTES = len(f' xmlns:soap="{_SOAP_NS}"')
_NAMESPACE_ATTRIB_BYTES = len(' namespace=""')


class SoapEnvelope:
    """One SOAP message: an operation call, a response, or a fault."""

    def __init__(self, operation: str, params: Dict[str, Any],
                 namespace: str = "urn:repro",
                 is_response: bool = False,
                 fault: Optional[SoapFault] = None):
        self.operation = operation
        self.params = params
        self.namespace = namespace
        self.is_response = is_response
        self.fault = fault
        self._size: Optional[int] = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def request(cls, operation: str, params: Dict[str, Any],
                namespace: str = "urn:repro") -> "SoapEnvelope":
        return cls(operation, params, namespace)

    @classmethod
    def response(cls, operation: str, result: Any,
                 namespace: str = "urn:repro") -> "SoapEnvelope":
        return cls(operation + _RESULT_SUFFIX, {"return": result},
                   namespace, is_response=True)

    @classmethod
    def fault_response(cls, fault: SoapFault,
                       namespace: str = "urn:repro") -> "SoapEnvelope":
        return cls(_FAULT_TAG, {}, namespace, is_response=True, fault=fault)

    # -- codec ------------------------------------------------------------------

    def encode(self) -> bytes:
        """Serialize to XML bytes."""
        env = ET.Element(_ENV_TAG)
        env.set("xmlns:soap", _SOAP_NS)
        body = ET.SubElement(env, _BODY_TAG)
        if self.fault is not None:
            fault = ET.SubElement(body, _FAULT_TAG)
            ET.SubElement(fault, "faultcode").text = self.fault.faultcode
            ET.SubElement(fault, "faultstring").text = self.fault.faultstring
            ET.SubElement(fault, "detail").text = self.fault.detail
        else:
            op = ET.SubElement(body, self.operation)
            # Stored as a plain attribute (not xmlns) so ElementTree does
            # not qualify every descendant tag with the namespace.
            op.set("namespace", self.namespace)
            for name, value in self.params.items():
                op.append(value_to_element(name, value))
        return render(env)

    @classmethod
    def decode(cls, data: bytes) -> "SoapEnvelope":
        """Parse XML bytes back into an envelope.

        A fault envelope decodes into an object whose ``fault`` attribute
        is set; it is the *caller's* choice to raise it.
        """
        root = parse(data)
        if root.tag != _ENV_TAG:
            raise WsError(f"not a SOAP envelope (root {root.tag!r})")
        body = root.find(_BODY_TAG)
        if body is None or len(body) != 1:
            raise WsError("SOAP body must contain exactly one element")
        payload = body[0]
        if payload.tag == _FAULT_TAG:
            fault = SoapFault(
                faultcode=_text(payload, "faultcode"),
                faultstring=_text(payload, "faultstring"),
                detail=_text(payload, "detail"),
            )
            return cls.fault_response(fault)
        params = {child.tag: element_to_value(child) for child in payload}
        namespace = payload.get("namespace", "urn:repro")
        is_response = payload.tag.endswith(_RESULT_SUFFIX)
        return cls(payload.tag, params, namespace, is_response=is_response)

    # -- helpers -------------------------------------------------------------------

    def result(self) -> Any:
        """The return value of a response envelope (raises its fault)."""
        if self.fault is not None:
            raise self.fault
        if not self.is_response:
            raise WsError("not a response envelope")
        return self.params.get("return")

    def size(self) -> int:
        """Encoded size in bytes (drives the simulated transport).

        Raises the same :class:`WsError` as :meth:`encode` for a value
        it could not encode.  An envelope is not mutated once built, so
        it is measured once: the server validates a response by sizing
        it and the transport then sends that many bytes.
        """
        if self._size is None:
            self._size = self._measure()
        return self._size

    def _measure(self) -> int:
        """The sizing walk: mirrors :meth:`encode` element for element."""
        if self.fault is not None:
            fault = self.fault
            payload = element_size(
                _FAULT_TAG, 0,
                element_size("faultcode", 0, text_size(fault.faultcode))
                + element_size("faultstring", 0, text_size(fault.faultstring))
                + element_size("detail", 0, text_size(fault.detail)))
        else:
            payload = element_size(
                self.operation,
                _NAMESPACE_ATTRIB_BYTES + attrib_size(self.namespace),
                sum(value_size(name, value)
                    for name, value in self.params.items()))
        return _DECLARATION_BYTES + element_size(
            _ENV_TAG, _ENVELOPE_ATTRIB_BYTES,
            element_size(_BODY_TAG, 0, payload))

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        kind = "fault" if self.fault else ("rsp" if self.is_response else "req")
        return f"<SoapEnvelope {kind} {self.operation!r}>"


def _text(parent: ET.Element, tag: str) -> str:
    node = parent.find(tag)
    return (node.text or "") if node is not None else ""
