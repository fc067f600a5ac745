"""Service description model: parameters, operations, services.

These are the objects the rest of the stack agrees on: the portal
collects a :class:`ParameterSpec` list from the upload form (Figure 3's
"Parameter-Name / Parameter-Type" rows), the service builder turns them
into a :class:`ServiceDescription`, WSDL generation renders that
description, and the UDDI registry publishes it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.errors import WsError
from repro.ws.xmlcodec import XSD_TYPES

__all__ = ["ParameterSpec", "OperationSpec", "ServiceDescription"]


class ParameterSpec:
    """A named, XSD-typed parameter."""

    __slots__ = ("name", "xsd_type")

    def __init__(self, name: str, xsd_type: str = "xsd:string"):
        if not name or not name.replace("_", "").isalnum():
            raise WsError(f"invalid parameter name {name!r}")
        if xsd_type not in XSD_TYPES:
            raise WsError(f"unsupported parameter type {xsd_type!r}")
        self.name = name
        self.xsd_type = xsd_type

    def validate(self, value: Any) -> None:
        """Raise :class:`WsError` if *value* does not fit this parameter."""
        expected = XSD_TYPES[self.xsd_type]
        if expected is int and isinstance(value, bool):
            raise WsError(f"parameter {self.name!r}: bool is not xsd:int")
        if expected is float and isinstance(value, int) and not isinstance(value, bool):
            return  # ints are acceptable doubles
        if expected is bytes and isinstance(value, (bytearray, memoryview)):
            return  # a view is a zero-copy range of someone's bytes
        if not isinstance(value, expected):
            raise WsError(
                f"parameter {self.name!r} expects {self.xsd_type}, "
                f"got {type(value).__name__}")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ParameterSpec)
                and (other.name, other.xsd_type) == (self.name, self.xsd_type))

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<Param {self.name}:{self.xsd_type}>"


class OperationSpec:
    """One operation: name, input parameters, return type."""

    __slots__ = ("name", "params", "return_type")

    def __init__(self, name: str, params: Sequence[ParameterSpec] = (),
                 return_type: str = "xsd:string"):
        if not name or not name.replace("_", "").isalnum():
            raise WsError(f"invalid operation name {name!r}")
        if return_type not in XSD_TYPES:
            raise WsError(f"unsupported return type {return_type!r}")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise WsError(f"duplicate parameter names in {name!r}")
        self.name = name
        self.params = tuple(params)
        self.return_type = return_type

    def validate_arguments(self, arguments: Dict[str, Any]) -> None:
        """Check an argument dict against the parameter list."""
        expected = {p.name for p in self.params}
        got = set(arguments)
        if expected != got:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise WsError(
                f"operation {self.name!r}: missing={missing} unexpected={extra}")
        for p in self.params:
            p.validate(arguments[p.name])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, OperationSpec)
                and other.name == self.name
                and other.params == self.params
                and other.return_type == self.return_type)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        sig = ", ".join(f"{p.name}:{p.xsd_type}" for p in self.params)
        return f"<Operation {self.name}({sig}) -> {self.return_type}>"


class ServiceDescription:
    """A deployable service: a named set of operations."""

    def __init__(self, name: str, operations: Sequence[OperationSpec],
                 namespace: Optional[str] = None, documentation: str = ""):
        if not name or not name.replace("_", "").replace("-", "").isalnum():
            raise WsError(f"invalid service name {name!r}")
        if not operations:
            raise WsError(f"service {name!r} needs at least one operation")
        op_names = [op.name for op in operations]
        if len(set(op_names)) != len(op_names):
            raise WsError(f"duplicate operation names in service {name!r}")
        self.name = name
        self.operations = tuple(operations)
        self.namespace = namespace or f"urn:repro:{name}"
        self.documentation = documentation

    def operation(self, name: str) -> OperationSpec:
        for op in self.operations:
            if op.name == name:
                return op
        raise WsError(f"service {self.name!r} has no operation {name!r}")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ServiceDescription)
                and other.name == self.name
                and other.operations == self.operations
                and other.namespace == self.namespace)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<Service {self.name!r} ops={[o.name for o in self.operations]}>"
