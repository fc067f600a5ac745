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

Each line of ``benchmarks/reach_allow.txt`` is one function kept
unreached, with the reason it stays::

    repro/db/engine.py::Database.rollback  # fault-path: aborts a transaction

The tag is one of :data:`TAGS`.  A ``harness-pin`` reason names the file
of ``benchmarks/e2e/`` that uses the function, and that file must hold
the function's name.

``--check`` compares the unreached set with the list and exits 1 when a
function outside the list went unreached, a listed function was
reached or no longer exists (the list can only shrink), or a line is
malformed: no tag, a tag outside :data:`TAGS`, a ``harness-pin`` whose
file does not name the function, or lines unsorted or repeated.
``--write`` rewrites the list from this run, keeping the reason of
every entry that stays; a new entry is written bare, for a reason to be
added by hand.  The whole run takes about half a minute on a
laptop-class core.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import os
import re
import runpy
import sys
import types
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOW = ROOT / "benchmarks" / "reach_allow.txt"
WORKLOADS = ("faithful_hot", "faithful_bulk", "production_hot",
             "production_mixed")
SCALE = 0.25
E2E = ROOT / "benchmarks" / "e2e"

#: Why a function may stay unreached.
TAGS = {
    "harness-pin": "the frozen benchmarks/e2e/ code uses it",
    "test-probe": "tests read state through it",
    "fault-path": "only a failure or recovery runs it",
    "oracle": "a reference that tests check other code against",
    "abstract": "a base-class stub every subclass overrides",
    "protocol": "part of an interface (Python, SOAP, SQL, GridFTP, ...) "
                "that no run happens to use",
    "full-size": "only a full-size benchmarks/bench_scenarios.py row "
                 "reaches it",
}
_LINE = re.compile(
    r"^(?P<name>\S+::\S+)\s+#\s*(?P<tag>[\w-]+):\s*(?P<why>\S.*)$")
_E2E_FILE = re.compile(r"(?:benchmarks/)?e2e/(?P<file>[\w/]+\.py)")

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


def parse_allow(text: str) -> Tuple[Dict[str, Tuple[Optional[str], str]],
                                     List[str]]:
    """The allowlist's entries, ``name -> (tag, why)``, and its problems.

    Blank lines and lines starting with ``#`` are skipped.  An entry
    without a reason parses with tag ``None`` (and is a problem); the
    problems also name unknown tags and unsorted or repeated names.
    """
    entries: Dict[str, Tuple[Optional[str], str]] = {}
    problems: List[str] = []
    names: List[str] = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _LINE.match(line)
        if match is None:
            name, tag, why = line.split("#", 1)[0].strip(), None, ""
            problems.append(f"line {number}: {name}: no '# <tag>: <why>'")
        else:
            name, tag, why = match["name"], match["tag"], match["why"]
            if tag not in TAGS:
                problems.append(f"line {number}: {name}: unknown tag "
                                f"{tag!r} (one of {', '.join(TAGS)})")
        if name in entries:
            problems.append(f"line {number}: {name}: listed twice")
        names.append(name)
        entries[name] = (tag, why)
    if names != sorted(names):
        problems.append("lines are not sorted by name")
    return entries, problems


def leaf(name: str) -> str:
    """The function's own name: ``a.py::C.f.<locals>.g`` -> ``g``."""
    return name.split("::", 1)[1].split(".")[-1]


def pin_problems(entries: Dict[str, Tuple[Optional[str], str]],
                 e2e: Path = E2E) -> List[str]:
    """``harness-pin`` entries whose reason names no ``benchmarks/e2e/``
    file holding the function's name."""
    problems = []
    for name, (tag, why) in entries.items():
        if tag != "harness-pin":
            continue
        match = _E2E_FILE.search(why)
        path = e2e / match["file"] if match else None
        if path is None or not path.is_file():
            problems.append(f"{name}: harness-pin names no benchmarks/e2e/ "
                            f"file")
        elif not re.search(rf"\b{re.escape(leaf(name))}\b",
                           path.read_text()):
            problems.append(f"{name}: benchmarks/e2e/{match['file']} "
                            f"does not use {leaf(name)!r}")
    return problems


def render_allow(unreached: List[str],
                 entries: Dict[str, Tuple[Optional[str], str]]) -> str:
    """The allowlist for *unreached*, each kept entry's reason kept."""
    lines = []
    for name in sorted(unreached):
        tag, why = entries.get(name, (None, ""))
        lines.append(f"{name}  # {tag}: {why}" if tag else name)
    return "".join(f"{line}\n" for line in lines)


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
    entries, problems = parse_allow(ALLOW.read_text())
    if args.write:
        ALLOW.write_text(render_allow(unreached, entries))
        return 0
    if not args.check:
        return 0
    problems += pin_problems(entries)
    new = sorted(set(unreached) - set(entries))
    stale = sorted(set(entries) - set(unreached))
    for name in new:
        print(f"unreached, not in the allowlist: {name}", file=sys.stderr)
    for name in stale:
        print(f"in the allowlist, but reached or gone (drop the line): "
              f"{name}", file=sys.stderr)
    for problem in problems:
        print(f"{ALLOW.relative_to(ROOT)}: {problem}", file=sys.stderr)
    return 1 if new or stale or problems else 0


if __name__ == "__main__":
    sys.exit(main())
