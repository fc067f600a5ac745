"""Folding a ``cProfile`` result into per-layer host self-time (T2).

Python functions are attributed by the file they live in: a function
under ``src/repro/<package>/`` belongs to layer ``<package>``, one under
``benchmarks/e2e/`` to ``harness``.  C and standard-library time has no
repro package, so a fixed table assigns it: ``stdlib.xml`` (xml.etree,
pyexpat and the text IO it writes through; owned by ws), ``stdlib.zlib``
(db), ``stdlib.base64`` (ws.xmlcodec), ``stdlib.hash`` (security,
HashRing), ``stdlib.heapq`` (simkernel) and ``stdlib.other``.  Every
profile entry lands in exactly one layer, so the layers sum to the
profiled total.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterable

__all__ = ["LAYERS", "STDLIB_LAYERS", "layer_of", "fold_profile"]

#: The ``src/repro`` packages reported as layers.
LAYERS = ("simkernel", "hardware", "ws", "db", "core", "grid", "cyberaide",
          "security", "telemetry", "resilience", "faults")

STDLIB_LAYERS = ("stdlib.xml", "stdlib.zlib", "stdlib.base64",
                 "stdlib.hash", "stdlib.heapq", "stdlib.other")

_REPRO = re.compile(r"[/\\]repro[/\\]([a-z_]+)[/\\][^/\\]+\.py$")
_HARNESS = re.compile(r"[/\\]benchmarks[/\\]e2e[/\\]")

#: (pattern on a builtin's repr or a stdlib file path) -> layer; first
#: match wins.
_STDLIB_TABLE = (
    (re.compile(r"zlib"), "stdlib.zlib"),
    (re.compile(r"binascii|base64"), "stdlib.base64"),
    (re.compile(r"_hashlib|hashlib|_sha\d|_md5|_blake2|hmac|openssl"),
     "stdlib.hash"),
    (re.compile(r"heapq"), "stdlib.heapq"),
    (re.compile(r"xml[/\\.]|pyexpat|_elementtree|ElementTree|"
                r"_io\.(StringIO|BytesIO|TextIOWrapper)"), "stdlib.xml"),
)


def layer_of(code: Any) -> str:
    """The layer one profile entry's code belongs to.

    *code* is a code object (Python function) or a string (the repr
    ``cProfile`` gives a C function).
    """
    where = code if isinstance(code, str) else code.co_filename
    if not isinstance(code, str):
        match = _REPRO.search(where)
        if match:
            package = match.group(1)
            # workloads/ and scenarios/ are callers of the layers, like
            # the harness; appliance is deployment (set-up only).
            return package if package in LAYERS else "harness"
        if _HARNESS.search(where):
            return "harness"
    for pattern, layer in _STDLIB_TABLE:
        if pattern.search(where):
            return layer
    return "stdlib.other"


def fold_profile(entries: Iterable[Any]) -> Dict[str, float]:
    """Sum ``inlinetime`` (self-time, seconds) of *entries* per layer.

    *entries* is ``cProfile.Profile.getstats()`` — or anything whose
    items have ``code`` and ``inlinetime``.  Every layer is present in
    the result, zero if nothing ran there.
    """
    folded = {name: 0.0 for name in LAYERS + STDLIB_LAYERS + ("harness",)}
    for entry in entries:
        folded[layer_of(entry.code)] += entry.inlinetime
    return folded
