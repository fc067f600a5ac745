"""Reach: which ``src/repro`` functions no scenario, example or workload calls.

``python benchmarks/reach.py`` runs, in this one process under
``sys.setprofile``:

* every ``ROWS`` scenario at ``--smoke`` (``python -m repro.scenarios
  all --smoke``, reports rendered);
* each ``examples/*.py`` as ``__main__``;
* one plain seed-0 pass of each of the four benchmark workloads at
  ``--scale 0.25`` (what ``python -m benchmarks.e2e pass`` runs);
* one call of each loop in the benchmark harness's ``DRIVERS`` and its
  ``fig7_check`` — so code only the harness drives counts as reached.

It then prints every function defined under ``src/repro`` (nested defs
included; lambdas, comprehensions and ``__repr__`` left out) that none
of them called, one ``path::qualname`` a line, and the count.

``--check`` compares that set with ``benchmarks/reach_allow.txt`` and
exits 1 when a function outside the list went unreached, or a listed
function was reached or no longer exists: the list can only shrink.
``--write`` rewrites the list from this run.  The whole run takes about
a minute on a laptop-class core.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import os
import runpy
import sys
import types
from pathlib import Path
from typing import Dict, Iterator, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOW = ROOT / "benchmarks" / "reach_allow.txt"
WORKLOADS = ("faithful_hot", "faithful_bulk", "production_hot",
             "production_mixed")
SCALE = 0.25

#: (real source path, first line, qualname) — what a code object is.
Key = Tuple[str, int, str]


def _functions(code: types.CodeType) -> Iterator[types.CodeType]:
    """The named functions compiled into *code*, nested ones included."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            # A def, not a class body, lambda or comprehension.
            if (const.co_flags & inspect.CO_OPTIMIZED
                    and not const.co_name.startswith("<")):
                yield const
            yield from _functions(const)


def defined() -> Dict[Key, str]:
    """Every function under ``src/repro``: key -> ``path::qualname``."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        real = os.path.realpath(path)
        rel = path.relative_to(SRC).as_posix()
        module = compile(path.read_text(), real, "exec")
        for code in _functions(module):
            if code.co_name != "__repr__":
                out[real, code.co_firstlineno, code.co_qualname] = (
                    f"{rel}::{code.co_qualname}")
    return out


def _run_all() -> None:
    """The run set, stdout swallowed; raises if any part fails."""
    from repro.scenarios.__main__ import main as scenarios
    from benchmarks.e2e import drivers, runner
    from benchmarks.e2e.passes import run_pass

    if scenarios(["all", "--smoke"]) != 0:
        raise SystemExit("reach: a scenario's claims failed at --smoke")
    argv = sys.argv
    for example in sorted((ROOT / "examples").glob("*.py")):
        sys.argv = [str(example)]
        try:
            runpy.run_path(str(example), run_name="__main__")
        finally:
            sys.argv = argv
    for workload in WORKLOADS:
        record = run_pass(workload, 0, scale=SCALE)
        if record["failed"]:
            raise SystemExit(f"reach: {workload}: {record['failures']}")
    for build, _unit in drivers.DRIVERS.values():
        loop, _ops = build()
        loop()
    if runner.fig7_check()["problems"]:
        raise SystemExit("reach: fig7 no longer matches its golden")


def reached() -> Set[Key]:
    """Keys of the ``src/repro`` code objects the run set called."""
    seen: Dict[int, types.CodeType] = {}

    def hook(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            seen[id(code)] = code   # holding it keeps the id unique

    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(hook)
        try:
            _run_all()
        finally:
            sys.setprofile(None)
    prefix = os.path.realpath(PACKAGE) + os.sep
    out = set()
    for code in seen.values():
        real = os.path.realpath(code.co_filename)
        if real.startswith(prefix):
            out.add((real, code.co_firstlineno, code.co_qualname))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/reach.py",
        description="List the src/repro functions nothing runs.")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help=f"fail unless the unreached set equals "
                           f"{ALLOW.relative_to(ROOT)}")
    mode.add_argument("--write", action="store_true",
                      help=f"rewrite {ALLOW.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)

    functions = defined()
    hit = reached()
    unreached = sorted({name for key, name in functions.items()
                        if key not in hit})
    for name in unreached:
        print(name)
    print(f"{len(unreached)} of {len(functions)} functions unreached "
          f"(__repr__ not counted)")
    if args.write:
        ALLOW.write_text("".join(f"{name}\n" for name in unreached))
        return 0
    if not args.check:
        return 0
    allowed = {line.strip() for line in ALLOW.read_text().splitlines()
               if line.strip() and not line.startswith("#")}
    new = sorted(set(unreached) - allowed)
    stale = sorted(allowed - set(unreached))
    for name in new:
        print(f"unreached, not in the allowlist: {name}", file=sys.stderr)
    for name in stale:
        print(f"in the allowlist, but reached or gone (drop the line): "
              f"{name}", file=sys.stderr)
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
