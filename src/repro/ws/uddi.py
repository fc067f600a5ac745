"""UDDI registry (jUDDI stand-in).

Implements the UDDI v2 data model the paper relies on: business
entities own business services, services carry binding templates (the
access point + a pointer to the WSDL), and tModels describe interfaces.
onServe publishes every generated web service here together with its
WSDL location and endpoint "to make it easier to find a service" (§V).

Find semantics follow UDDI's approximate-match convention: name patterns
are case-insensitive, with ``%`` matching any run of characters.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from functools import lru_cache
from typing import Dict, List, Optional

from repro.errors import UddiError

__all__ = ["BusinessEntity", "BusinessService", "BindingTemplate", "TModel",
           "UddiRegistry"]


class BusinessEntity:
    """The publisher: an organization or user."""

    __slots__ = ("key", "name", "description")

    def __init__(self, key: str, name: str, description: str = ""):
        self.key = key
        self.name = name
        self.description = description

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<BusinessEntity {self.name!r}>"


class BusinessService:
    """A published service owned by a business."""

    __slots__ = ("key", "business_key", "name", "description")

    def __init__(self, key: str, business_key: str, name: str,
                 description: str = ""):
        self.key = key
        self.business_key = business_key
        self.name = name
        self.description = description

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<BusinessService {self.name!r}>"


class BindingTemplate:
    """How to reach a service: access point + WSDL location + tModel."""

    __slots__ = ("key", "service_key", "access_point", "wsdl_location",
                 "tmodel_key")

    def __init__(self, key: str, service_key: str, access_point: str,
                 wsdl_location: str = "", tmodel_key: str = ""):
        self.key = key
        self.service_key = service_key
        self.access_point = access_point
        self.wsdl_location = wsdl_location
        self.tmodel_key = tmodel_key

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<BindingTemplate {self.access_point!r}>"


class TModel:
    """A reusable technical fingerprint (interface type)."""

    __slots__ = ("key", "name", "overview_url")

    def __init__(self, key: str, name: str, overview_url: str = ""):
        self.key = key
        self.name = name
        self.overview_url = overview_url


class UddiRegistry:
    """An in-process UDDI registry."""

    def __init__(self, name: str = "uddi"):
        self.name = name
        self._businesses: Dict[str, BusinessEntity] = {}
        self._services: Dict[str, BusinessService] = {}
        self._bindings: Dict[str, BindingTemplate] = {}
        self._tmodels: Dict[str, TModel] = {}
        self._counter = itertools.count(1)

    # -- keys ------------------------------------------------------------------

    def _new_key(self, kind: str) -> str:
        raw = f"{self.name}:{kind}:{next(self._counter)}"
        return "uuid:" + hashlib.sha1(raw.encode()).hexdigest()[:32]

    # -- publish ----------------------------------------------------------------

    def save_business(self, name: str, description: str = "") -> BusinessEntity:
        if not name:
            raise UddiError("business name must not be empty")
        entity = BusinessEntity(self._new_key("biz"), name, description)
        self._businesses[entity.key] = entity
        return entity

    def save_service(self, business_key: str, name: str,
                     description: str = "") -> BusinessService:
        if business_key not in self._businesses:
            raise UddiError(f"unknown businessKey {business_key!r}")
        if not name:
            raise UddiError("service name must not be empty")
        service = BusinessService(self._new_key("svc"), business_key, name,
                                  description)
        self._services[service.key] = service
        return service

    def save_binding(self, service_key: str, access_point: str,
                     wsdl_location: str = "",
                     tmodel_key: str = "") -> BindingTemplate:
        if service_key not in self._services:
            raise UddiError(f"unknown serviceKey {service_key!r}")
        if tmodel_key and tmodel_key not in self._tmodels:
            raise UddiError(f"unknown tModelKey {tmodel_key!r}")
        binding = BindingTemplate(self._new_key("bind"), service_key,
                                  access_point, wsdl_location, tmodel_key)
        self._bindings[binding.key] = binding
        return binding

    def save_tmodel(self, name: str, overview_url: str = "") -> TModel:
        if not name:
            raise UddiError("tModel name must not be empty")
        tmodel = TModel(self._new_key("tm"), name, overview_url)
        self._tmodels[tmodel.key] = tmodel
        return tmodel

    # -- delete -----------------------------------------------------------------

    def delete_service(self, service_key: str) -> None:
        """Remove a service and its bindings."""
        if service_key not in self._services:
            raise UddiError(f"unknown serviceKey {service_key!r}")
        del self._services[service_key]
        for key in [k for k, b in self._bindings.items()
                    if b.service_key == service_key]:
            del self._bindings[key]

    def delete_business(self, business_key: str) -> None:
        """Remove a business and everything under it."""
        if business_key not in self._businesses:
            raise UddiError(f"unknown businessKey {business_key!r}")
        del self._businesses[business_key]
        for key in [k for k, s in self._services.items()
                    if s.business_key == business_key]:
            self.delete_service(key)

    # -- inquiry ----------------------------------------------------------------

    def find_business(self, name_pattern: str = "%") -> List[BusinessEntity]:
        rx = _pattern_to_regex(name_pattern)
        return sorted((b for b in self._businesses.values()
                       if rx.match(b.name)), key=lambda b: b.name)

    def find_tmodel(self, name_pattern: str = "%") -> List[TModel]:
        rx = _pattern_to_regex(name_pattern)
        return sorted((t for t in self._tmodels.values()
                       if rx.match(t.name)), key=lambda t: t.name)

    def find_service(self, name_pattern: str = "%",
                     business_key: Optional[str] = None) -> List[BusinessService]:
        rx = _pattern_to_regex(name_pattern)
        hits = [s for s in self._services.values() if rx.match(s.name)]
        if business_key is not None:
            hits = [s for s in hits if s.business_key == business_key]
        return sorted(hits, key=lambda s: s.name)

    def get_business(self, key: str) -> BusinessEntity:
        try:
            return self._businesses[key]
        except KeyError:
            raise UddiError(f"unknown businessKey {key!r}") from None

    def get_service(self, key: str) -> BusinessService:
        try:
            return self._services[key]
        except KeyError:
            raise UddiError(f"unknown serviceKey {key!r}") from None

    def get_bindings(self, service_key: str) -> List[BindingTemplate]:
        self.get_service(service_key)  # raises on unknown key
        return sorted((b for b in self._bindings.values()
                       if b.service_key == service_key), key=lambda b: b.key)

    def get_tmodel(self, key: str) -> TModel:
        try:
            return self._tmodels[key]
        except KeyError:
            raise UddiError(f"unknown tModelKey {key!r}") from None

    def service_count(self) -> int:
        return len(self._services)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (f"<UddiRegistry businesses={len(self._businesses)} "
                f"services={len(self._services)}>")


@lru_cache(maxsize=256)
def _pattern_to_regex(pattern: str) -> "re.Pattern[str]":
    """*pattern*'s case-insensitive regex, built once per pattern."""
    parts = [re.escape(chunk) for chunk in pattern.split("%")]
    return re.compile("^" + ".*".join(parts) + "$", re.IGNORECASE)
