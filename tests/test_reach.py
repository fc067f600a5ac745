"""Unit tests for the reach tool's allowlist (benchmarks/reach.py)."""

from benchmarks.reach import leaf, parse_allow, pin_problems, render_allow

A = "repro/a.py::A.f"
B = "repro/b.py::g.<locals>.op"


def test_parse_reads_name_tag_and_reason_and_skips_comments():
    text = (f"# a comment line\n\n{A}  # fault-path: a drill runs it\n"
            f"{B}  # harness-pin: benchmarks/e2e/passes.py calls op\n")
    entries, problems = parse_allow(text)
    assert problems == []
    assert entries == {A: ("fault-path", "a drill runs it"),
                       B: ("harness-pin",
                           "benchmarks/e2e/passes.py calls op")}
    assert leaf(A) == "f" and leaf(B) == "op"


def test_parse_names_every_malformed_line():
    text = (f"{B}\n"                                  # no reason at all
            f"{A}  # fault-path:\n"                   # a tag, no why
            f"{A}  # because: it is handy\n")         # unknown tag, twice
    entries, problems = parse_allow(text)
    assert set(entries) == {A, B}
    assert problems[0] == f"line 1: {B}: no '# <tag>: <why>'"
    assert problems[1] == f"line 2: {A}: no '# <tag>: <why>'"
    assert problems[2].startswith(f"line 3: {A}: unknown tag 'because'")
    assert problems[3] == f"line 3: {A}: listed twice"
    assert problems[4:] == ["lines are not sorted by name"]


def test_write_keeps_surviving_reasons_and_leaves_new_entries_bare():
    entries, _ = parse_allow(f"{A}  # oracle: the reference\n"
                             f"{B}  # abstract: overridden\n")
    assert render_allow([B, "repro/c.py::h"], entries) == (
        f"{B}  # abstract: overridden\nrepro/c.py::h\n")
    # What --write renders parses back with a problem only for the new line.
    again, problems = parse_allow(render_allow([A, "repro/c.py::h"], entries))
    assert again[A] == ("oracle", "the reference")
    assert problems == ["line 2: repro/c.py::h: no '# <tag>: <why>'"]


def test_a_harness_pin_must_be_used_by_the_file_it_names(tmp_path):
    e2e = tmp_path / "benchmarks" / "e2e"
    e2e.mkdir(parents=True)
    (e2e / "passes.py").write_text("def run(x):\n    return x.f()\n")
    ok = {A: ("harness-pin", "benchmarks/e2e/passes.py calls it")}
    assert pin_problems(ok, e2e) == []
    unused = {B: ("harness-pin", "e2e/passes.py calls it")}
    assert pin_problems(unused, e2e) == [
        f"{B}: benchmarks/e2e/passes.py does not use 'op'"]
    unnamed = {A: ("harness-pin", "the harness calls it")}
    missing = {A: ("harness-pin", "benchmarks/e2e/drivers.py calls it")}
    for entries in (unnamed, missing):
        assert pin_problems(entries, e2e) == [
            f"{A}: harness-pin names no benchmarks/e2e/ file"]
    # Other tags are not looked up.
    assert pin_problems({A: ("test-probe", "tests read it")}, e2e) == []
