"""Making ``repro`` importable from a source checkout."""

from __future__ import annotations

import sys
from pathlib import Path

__all__ = ["ROOT", "ensure_repro_importable"]

ROOT = Path(__file__).resolve().parents[2]


def ensure_repro_importable() -> None:
    """Put ``<root>/src`` on ``sys.path``; exit 2 if it holds no repro.

    The benchmark measures the program in the checkout it runs from and
    never an installed copy, so a checkout without ``src/repro`` (a
    directory holding only the benchmark) is an error, not a fallback.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"benchmarks/e2e: no program to measure: {src / 'repro'} "
              "is missing", file=sys.stderr)
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
