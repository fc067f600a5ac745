"""Typed value <-> XML element codec (the XSD simple types we need).

:func:`value_to_element` / :func:`element_to_value` / :func:`render` /
:func:`parse` are the reference codec.  The ``*_size`` functions count
the bytes :func:`render` would write without writing them; the simulated
wire charges the network from those.
"""

from __future__ import annotations

import base64
import re
import xml.etree.ElementTree as ET
from typing import Any, Optional

from repro.errors import WsError

#: Characters string values may not contain: what XML 1.0 cannot carry at
#: all, plus bare carriage returns (XML parsers normalize them to \n, so
#: they would not round-trip — callers should use \n line endings).
_XML_FORBIDDEN = re.compile(
    "[\x00-\x08\x0b-\x0c\x0d\x0e-\x1f\ud800-\udfff￾￿]")

__all__ = ["XSD_TYPES", "python_to_xsd", "value_to_element",
           "element_to_value", "render", "parse",
           "text_size", "attrib_size", "element_size", "value_size"]

#: Supported XSD simple types and their Python equivalents.
XSD_TYPES = {
    "xsd:string": str,
    "xsd:int": int,
    "xsd:long": int,
    "xsd:double": float,
    "xsd:boolean": bool,
    "xsd:base64Binary": bytes,
}


def python_to_xsd(value: Any) -> str:
    """Infer an XSD type name from a Python value."""
    if isinstance(value, bool):
        return "xsd:boolean"
    if isinstance(value, int):
        return "xsd:int"
    if isinstance(value, float):
        return "xsd:double"
    if isinstance(value, str):
        return "xsd:string"
    if isinstance(value, (bytes, bytearray, memoryview)):
        return "xsd:base64Binary"
    raise WsError(f"no XSD mapping for {type(value).__name__}")


def value_to_element(name: str, value: Any,
                     xsd_type: Optional[str] = None) -> ET.Element:
    """Encode *value* as ``<name xsi:type="...">text</name>``."""
    xsd_type = xsd_type or python_to_xsd(value)
    if xsd_type not in XSD_TYPES:
        raise WsError(f"unsupported XSD type {xsd_type!r}")
    elem = ET.Element(name)
    elem.set("type", xsd_type)
    if value is None:
        elem.set("nil", "true")
    elif xsd_type == "xsd:boolean":
        elem.text = "true" if value else "false"
    elif xsd_type == "xsd:base64Binary":
        elem.text = base64.b64encode(bytes(value)).decode("ascii")
    elif xsd_type == "xsd:double":
        elem.text = repr(float(value))
    else:
        text = str(value)
        if _XML_FORBIDDEN.search(text):
            raise WsError(
                f"string for {name!r} contains characters XML cannot carry")
        elem.text = text
    return elem


def element_to_value(elem: ET.Element) -> Any:
    """Decode an element produced by :func:`value_to_element`."""
    xsd_type = elem.get("type", "xsd:string")
    if xsd_type not in XSD_TYPES:
        raise WsError(f"unsupported XSD type {xsd_type!r}")
    if elem.get("nil") == "true":
        return None
    text = elem.text or ""
    try:
        if xsd_type == "xsd:boolean":
            if text not in ("true", "false", "1", "0"):
                raise ValueError(text)
            return text in ("true", "1")
        if xsd_type in ("xsd:int", "xsd:long"):
            return int(text)
        if xsd_type == "xsd:double":
            return float(text)
        if xsd_type == "xsd:base64Binary":
            return base64.b64decode(text.encode("ascii"), validate=True)
        return text
    except (ValueError, base64.binascii.Error) as exc:
        raise WsError(
            f"cannot decode {text[:40]!r} as {xsd_type}: {exc}") from None


def render(elem: ET.Element) -> bytes:
    """Serialize an element tree to UTF-8 bytes with an XML declaration."""
    return ET.tostring(elem, encoding="utf-8", xml_declaration=True)


def parse(data: bytes) -> ET.Element:
    """Parse bytes into an element tree, mapping errors to WsError."""
    try:
        return ET.fromstring(data)
    except ET.ParseError as exc:
        raise WsError(f"malformed XML: {exc}") from None


# -- sizing: what render() would write, counted instead of written ------------
#
# Every function below returns exactly the number of bytes :func:`render`
# emits for the same input (tests/ws/test_properties.py holds them to it);
# none builds an element, an escaped copy or a base64 string.

def _utf8_size(text: str) -> int:
    """Encoded length of *text* as render()'s writer emits it: UTF-8,
    with lone surrogates as ``&#N;`` references (``xmlcharrefreplace``)."""
    if text.isascii():
        return len(text)
    return len(text.encode("utf-8", "xmlcharrefreplace"))


def text_size(text: str) -> int:
    """Encoded length of element text: ``&`` ``<`` ``>`` are escaped."""
    size = _utf8_size(text)
    # ``in`` is a memchr; count() is several times dearer, and most text
    # has nothing to escape.
    if "&" in text:
        size += 4 * text.count("&")  # &amp;
    if "<" in text:
        size += 3 * text.count("<")  # &lt;
    if ">" in text:
        size += 3 * text.count(">")  # &gt;
    return size


def attrib_size(value: str) -> int:
    """Encoded length of an attribute value: the text escapes plus
    ``&quot;`` and the ``&#13;`` ``&#10;`` ``&#09;`` references."""
    return (text_size(value) + 5 * value.count('"')
            + 4 * (value.count("\r") + value.count("\n")
                   + value.count("\t")))


def element_size(tag: str, attrib_bytes: int, content_bytes: int) -> int:
    """Encoded length of ``<tag attrs>content</tag>``.

    *attrib_bytes* counts the whole `` name="value"`` run, *content_bytes*
    the text plus children; an empty element takes the short
    ``<tag attrs />`` form.  Tags are written verbatim.
    """
    tag_bytes = _utf8_size(tag)
    if content_bytes:
        return 2 * tag_bytes + 5 + attrib_bytes + content_bytes  # < > </ >
    return tag_bytes + 4 + attrib_bytes  # < and " />"


def value_size(name: str, value: Any) -> int:
    """Encoded length of ``value_to_element(name, value)``.

    Raises the same :class:`WsError` for a value with no XSD mapping or
    a string XML cannot carry.
    """
    xsd_type = python_to_xsd(value)
    if xsd_type == "xsd:boolean":
        text_bytes = 4 if value else 5  # true / false
    elif xsd_type == "xsd:base64Binary":
        text_bytes = 4 * ((len(value) + 2) // 3)
    elif xsd_type == "xsd:double":
        text_bytes = len(repr(float(value)))
    else:
        text = str(value)
        if _XML_FORBIDDEN.search(text):
            raise WsError(
                f"string for {name!r} contains characters XML cannot carry")
        text_bytes = text_size(text)
    return element_size(name, 8 + len(xsd_type), text_bytes)  # ' type=""'
