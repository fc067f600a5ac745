"""Cyberaide onServe: the paper's contribution.

This package implements the SaaS-to-JSE translation middleware:

* :mod:`~repro.core.datastructures` — executable and generated-service
  records (the paper's "datastructures" package),
* :mod:`~repro.core.watchdog` — the "tools" package watchdog (timeouts,
  tentative polling),
* :mod:`~repro.core.service_builder` — the ant-build equivalent that
  turns an uploaded executable into a deployable service archive,
* :mod:`~repro.core.grid_service` — the GridService template runtime:
  what the *generated* web service does when its ``execute`` operation
  is invoked (§VII.B: retrieve, authenticate, upload, describe, submit,
  poll, return),
* :mod:`~repro.core.onserve` — the middleware facade,
* :mod:`~repro.core.fabric` — the one deployer: the full stack onto a
  testbed, as one appliance (``deploy_onserve``) or N behind a router,
* :mod:`~repro.core.portal` — the extended Cyberaide portal upload flow
  (§VII.A, with its faithful double disk write),
* :mod:`~repro.core.invocation` — the *client-side* workflow: discover
  in UDDI, fetch WSDL, generate a stub, invoke,
* :mod:`~repro.core.context` — the :class:`RequestContext` carrier of
  the unified request fabric (request id, principal, deadline, trace).

Package-level names resolve lazily (PEP 562): :mod:`repro.core.context`
sits *below* the web-service stack (``repro.ws`` imports it), while the
rest of this package sits *above* it, so an eager ``__init__`` would
close an import cycle.
"""

from typing import Any

_EXPORTS = {
    "ExecutableRecord": "repro.core.datastructures",
    "GeneratedService": "repro.core.datastructures",
    "RequestContext": "repro.core.context",
    "TraceSpan": "repro.core.context",
    "Watchdog": "repro.core.watchdog",
    "ServiceBuilder": "repro.core.service_builder",
    "OnServe": "repro.core.onserve",
    "OnServeConfig": "repro.core.onserve",
    "deploy_onserve": "repro.core.onserve",
    "CyberaidePortal": "repro.core.portal",
    "discover_and_invoke": "repro.core.invocation",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list:
    return sorted(set(globals()) | set(_EXPORTS))
