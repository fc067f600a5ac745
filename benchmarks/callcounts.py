"""How often named functions run inside one benchmark pass window.

``python benchmarks/callcounts.py --workload production_hot
zipfile:ZipFile.__init__ inspect:signature`` runs one T2 pass (the same
window ``python -m benchmarks.e2e pass --mode t2`` profiles) in this
process and prints, for each ``module:qualname`` asked for, the calls
``cProfile`` counted in the window.  A module is named by its file's
stem (``re`` is ``re/__init__.py``, so ``__init__:split``); only Python
functions are counted, and a function wrapped in a C cache (such as
``functools.lru_cache``) counts its misses.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]


def window_counts(workload: str, seed: int, scale: float,
                  names: Sequence[str]) -> Dict[str, int]:
    """Calls of each ``module:qualname`` in *names* in one T2 window."""
    from benchmarks.e2e import passes

    stats: List = []

    class Profile(cProfile.Profile):
        def getstats(self):
            stats[:] = super().getstats()
            return stats

    real = passes.cProfile.Profile
    passes.cProfile.Profile = Profile
    try:
        passes.run_pass(workload, seed, mode="t2", scale=scale)
    finally:
        passes.cProfile.Profile = real
    counts = dict.fromkeys(names, 0)
    for entry in stats:
        code = entry.code
        if isinstance(code, str):
            continue  # a C function
        stem = os.path.splitext(os.path.basename(code.co_filename))[0]
        key = f"{stem}:{getattr(code, 'co_qualname', code.co_name)}"
        if key in counts:
            counts[key] += entry.callcount
    return counts


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/callcounts.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("names", nargs="+", metavar="module:qualname")
    args = parser.parse_args(argv)
    counts = window_counts(args.workload, args.seed, args.scale, args.names)
    print(f"{args.workload} seed {args.seed} scale {args.scale}")
    for name, calls in counts.items():
        print(f"  {name:40s} {calls}")
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
