"""Executable and generated-service records (the "datastructures" pkg)."""

from __future__ import annotations

import functools
import re
from typing import List, Sequence

from repro.errors import OnServeError
from repro.ws.registryapi import ParameterSpec

__all__ = ["ExecutableRecord", "GeneratedService", "parse_params_spec",
           "service_name_for"]

#: Textual parameter-spec syntax used by the portal form (Figure 3):
#: ``name:type,name:type`` with types string|int|double|boolean.
_PARAM_TYPES = {
    "string": "xsd:string",
    "int": "xsd:int",
    "double": "xsd:double",
    "boolean": "xsd:boolean",
}


def parse_params_spec(spec: str) -> List[ParameterSpec]:
    """Parse the portal's parameter declaration string.

    An empty spec means a parameterless executable.
    """
    spec = spec.strip()
    if not spec:
        return []
    params = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if ":" not in chunk:
            raise OnServeError(
                f"bad parameter spec {chunk!r} (want name:type)")
        name, _, type_name = chunk.partition(":")
        name = name.strip()
        type_name = type_name.strip().lower()
        if type_name not in _PARAM_TYPES:
            raise OnServeError(
                f"unknown parameter type {type_name!r} "
                f"(know {sorted(_PARAM_TYPES)})")
        params.append(ParameterSpec(name, _PARAM_TYPES[type_name]))
    return params


@functools.lru_cache(maxsize=1024)
def service_name_for(executable_name: str) -> str:
    """Derive the generated service's name from an executable name.

    ``word-count_2.sh`` -> ``WordCount2Service`` (the build script's
    "modifies its name" step).  Memoised: every invocation asks it for
    the same few names.
    """
    stem = executable_name.rsplit(".", 1)[0]
    words = re.split(r"[^0-9A-Za-z]+", stem)
    camel = "".join(w.capitalize() for w in words if w)
    if not camel:
        raise OnServeError(f"cannot derive a service name from "
                           f"{executable_name!r}")
    return camel + "Service"


class ExecutableRecord:
    """An uploaded executable's metadata (payload lives in the DB)."""

    def __init__(self, name: str, description: str,
                 params: Sequence[ParameterSpec], size: int,
                 uploaded_by: str, uploaded_at: float):
        if not name:
            raise OnServeError("executable name must not be empty")
        self.name = name
        self.description = description
        self.params = list(params)
        self.size = size
        self.uploaded_by = uploaded_by
        self.uploaded_at = uploaded_at

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<ExecutableRecord {self.name!r} {self.size}B>"


class GeneratedService:
    """Everything onServe knows about one generated web service."""

    def __init__(self, service_name: str, executable_name: str,
                 endpoint: str, wsdl_location: str,
                 uddi_service_key: str, uddi_binding_key: str,
                 archive_size: int, created_at: float):
        self.service_name = service_name
        self.executable_name = executable_name
        self.endpoint = endpoint
        self.wsdl_location = wsdl_location
        self.uddi_service_key = uddi_service_key
        self.uddi_binding_key = uddi_binding_key
        self.archive_size = archive_size
        self.created_at = created_at
        #: SHA-256 of the executable it runs, when recorded at publish
        #: (publish-time staging, DESIGN.md §10); "" otherwise.
        self.digest = ""

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (f"<GeneratedService {self.service_name!r} "
                f"for {self.executable_name!r}>")
