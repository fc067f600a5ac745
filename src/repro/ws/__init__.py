"""The web-service stack: SOAP, WSDL, UDDI, server and client.

This is the appliance's Tomcat/Axis2/jUDDI stand-in.  Marshalling is
*real*: requests and responses are actual XML documents built and parsed
with the standard library, so message sizes (which drive the simulated
network timing) come from real bytes.  Only the transport is simulated —
a message "travels" by charging its byte size to the network path
between the client and server hosts.

Layering::

    client.py   WsClient + wsimport-style stub generation
    uddi.py     UDDI registry (publish / find)
    server.py   SoapServer: deploy services, dispatch invocations
    pipeline.py one SOAP crossing: span, deadline, one ws.request event
    wsdl.py     WSDL generation and parsing
    soap.py     Envelope encode/decode, faults
    xmlcodec.py typed value <-> XML codec

Both :class:`SoapServer` and :class:`WsClient` run every request as
one :func:`~repro.ws.pipeline.cross`, which leaves one record of it: a
``ws.request`` event on the simulator's bus.
"""

from repro.ws.client import WsClient, generate_stub
from repro.ws.pipeline import Invocation, cross
from repro.ws.registryapi import OperationSpec, ParameterSpec, ServiceDescription
from repro.ws.server import SoapFabric, SoapServer
from repro.ws.soap import SoapEnvelope
from repro.ws.uddi import UddiRegistry
from repro.ws.wsdl import generate_wsdl, parse_wsdl

__all__ = [
    "ParameterSpec",
    "OperationSpec",
    "ServiceDescription",
    "SoapEnvelope",
    "generate_wsdl",
    "parse_wsdl",
    "SoapFabric",
    "SoapServer",
    "WsClient",
    "generate_stub",
    "UddiRegistry",
    "Invocation",
    "cross",
]
