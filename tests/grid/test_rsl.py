"""Unit tests for the RSL job description language."""

import pytest

from repro.errors import RslError
from repro.grid import JobDescription, generate_rsl, parse_rsl, rsl


def test_minimal_description_defaults():
    d = JobDescription(executable="/bin/app")
    assert d.count == 1
    assert d.max_wall_time == 3600
    assert d.queue == "normal"
    assert d.stdout == "app.out"
    assert d.job_type == "single"


def test_roundtrip_full():
    d = JobDescription(
        executable="/scratch/hello.sh",
        arguments=["alice", "3", "with space"],
        count=4,
        max_wall_time=900,
        queue="debug",
        stdout="hello.out",
        stderr="hello.err",
        directory="/scratch",
        job_type="mpi",
        project="TG-ABC123",
        environment=["PATH=/bin", "LANG=C"],
        max_memory=2048,
    )
    assert parse_rsl(generate_rsl(d)) == d


def test_parse_example_text():
    text = ('&(executable="/bin/echo")(arguments="hi" "there")'
            '(count=2)(maxWallTime=60)(queue="normal")(stdout="e.out")')
    d = parse_rsl(text)
    assert d.executable == "/bin/echo"
    assert d.arguments == ["hi", "there"]
    assert d.count == 2
    assert d.max_wall_time == 60


def test_parse_tolerates_whitespace():
    text = '&  (executable = "/bin/x")\n  (count = 3)'
    d = parse_rsl(text)
    assert d.count == 3


def test_parse_bare_tokens():
    d = parse_rsl("&(executable=/bin/x)(count=2)")
    assert d.executable == "/bin/x"


def test_validation_errors():
    with pytest.raises(RslError):
        JobDescription(executable="")
    with pytest.raises(RslError):
        JobDescription(executable="/x", count=0)
    with pytest.raises(RslError):
        JobDescription(executable="/x", max_wall_time=0)
    with pytest.raises(RslError):
        JobDescription(executable="/x", max_memory=-1)
    with pytest.raises(RslError):
        JobDescription(executable="/x", arguments=[3])


def test_parse_errors():
    for bad in [
        "(executable=/x)",              # no '&'
        "&executable=/x",               # no parens
        "&(=5)",                        # no name
        "&(executable)",                # no '='
        '&(executable="/x"',            # unterminated clause
        '&(executable="/x)',            # unterminated string
        "&(count=1)",                   # missing executable
        "&(executable=/x)(count=a)",    # non-integer
        "&(executable=/x)(count=1)(count=2)",  # duplicate
        "&(executable=/x)(nonsense=1)",  # unknown attribute
        '&(executable="/a" "/b")',      # multi-valued single attr
        "&(executable=)",               # empty value list
    ]:
        with pytest.raises(RslError):
            parse_rsl(bad)


def test_quotes_in_strings_rejected():
    d = JobDescription(executable='/bin/x')
    d.arguments = ['say "hi"']
    with pytest.raises(RslError):
        generate_rsl(d)


def test_a_text_just_rendered_is_not_tokenised_again(monkeypatch):
    text = generate_rsl(JobDescription(executable="/bin/x",
                                       arguments=["a b", ")("], count=3))

    def tokenise(_text):
        raise AssertionError("a rendered text was tokenised")
    monkeypatch.setattr(rsl, "_tokenise", tokenise)
    d = parse_rsl(text)
    assert (d.arguments, d.count) == (["a b", ")("], 3)
    assert parse_rsl(text) is not d  # each parse is a fresh description


def test_a_rendering_with_a_non_int_count_is_parsed_cold():
    d = JobDescription(executable="/bin/x", count=2.0)
    text = generate_rsl(d)
    assert text not in rsl._RENDERED
    with pytest.raises(RslError, match="needs an integer"):
        parse_rsl(text)


def test_the_rendered_memo_is_bounded():
    texts = [generate_rsl(JobDescription(executable=f"/bin/x{i}"))
             for i in range(rsl._RENDERED_MAX + 10)]
    assert len(rsl._RENDERED) <= rsl._RENDERED_MAX
    assert texts[-1] in rsl._RENDERED and texts[0] not in rsl._RENDERED
    assert parse_rsl(texts[0]) == JobDescription(executable="/bin/x0")
