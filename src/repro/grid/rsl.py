"""RSL: the Globus-style Resource Specification Language.

The paper's invocation workflow generates "a job description ... by using
the specified parameters and the name of the executable" (§VII.B).  This
module is that language: a faithful small subset of Globus RSL::

    &(executable="/scratch/hello.sh")
     (arguments="alice" "3")
     (count=2)
     (maxWallTime=3600)
     (queue="normal")
     (stdout="hello.out")

:func:`generate_rsl` and :func:`parse_rsl` are exact inverses (verified
by property tests); :class:`JobDescription` validates field semantics.

A process that renders a description and then submits the text (the
agent and the gatekeeper share one) parses nothing: ``generate_rsl``
remembers, for the last :data:`_RENDERED_MAX` texts it rendered, the
attribute values that tokenising the text yields, and ``parse_rsl``
starts from those.  Both paths end in the same validation, so a hit
returns, or raises, exactly what a cold parse would.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import RslError

__all__ = ["JobDescription", "generate_rsl", "parse_rsl"]

#: Attributes with integer values.
_INT_ATTRS = {"count", "maxWallTime", "maxMemory"}
#: Attributes with a single string value.
_STR_ATTRS = {"executable", "stdout", "stderr", "queue", "directory",
              "jobType", "project"}
#: Attributes with a list of string values.
_LIST_ATTRS = {"arguments", "environment"}

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"[^\s)]+")

#: Texts :func:`generate_rsl` rendered -> the attribute values parsing
#: them yields, oldest first.  A pure function of the text, so sharing
#: it across simulators in one process changes no outcome.
_RENDERED: Dict[str, Dict[str, Tuple[str, ...]]] = {}
#: How many renderings :data:`_RENDERED` keeps: a text is parsed moments
#: after it is rendered, so a short memory catches every such parse.
_RENDERED_MAX = 256


class JobDescription:
    """A validated job description (the parsed form of an RSL string)."""

    def __init__(self, executable: str,
                 arguments: Sequence[str] = (),
                 count: int = 1,
                 max_wall_time: int = 3600,
                 queue: str = "normal",
                 stdout: str = "",
                 stderr: str = "",
                 directory: str = "",
                 job_type: str = "single",
                 project: str = "",
                 environment: Sequence[str] = (),
                 max_memory: int = 0):
        if not executable:
            raise RslError("executable must not be empty")
        if count < 1:
            raise RslError(f"count must be >= 1, got {count}")
        if max_wall_time < 1:
            raise RslError(f"maxWallTime must be >= 1, got {max_wall_time}")
        if max_memory < 0:
            raise RslError(f"maxMemory must be >= 0, got {max_memory}")
        for arg in arguments:
            if not isinstance(arg, str):
                raise RslError(f"arguments must be strings, got {arg!r}")
        self.executable = executable
        self.arguments = list(arguments)
        self.count = count
        self.max_wall_time = max_wall_time
        self.queue = queue
        self.stdout = stdout or f"{_basename(executable)}.out"
        self.stderr = stderr
        self.directory = directory
        self.job_type = job_type
        self.project = project
        self.environment = list(environment)
        self.max_memory = max_memory

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JobDescription):
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (f"<JobDescription {self.executable!r} count={self.count} "
                f"wall={self.max_wall_time}>")


def _basename(path: str) -> str:
    return path.rsplit("/", 1)[-1] or "job"


def _quote(value: str) -> str:
    if '"' in value:
        raise RslError(f"RSL strings cannot contain double quotes: {value!r}")
    return f'"{value}"'


def generate_rsl(desc: JobDescription) -> str:
    """Render *desc* as RSL text, and remember what parsing it yields."""
    clauses: List[str] = [f"(executable={_quote(desc.executable)})"]
    if desc.arguments:
        args = " ".join(_quote(a) for a in desc.arguments)
        clauses.append(f"(arguments={args})")
    clauses.append(f"(count={desc.count})")
    clauses.append(f"(maxWallTime={desc.max_wall_time})")
    clauses.append(f"(queue={_quote(desc.queue)})")
    clauses.append(f"(stdout={_quote(desc.stdout)})")
    if desc.stderr:
        clauses.append(f"(stderr={_quote(desc.stderr)})")
    if desc.directory:
        clauses.append(f"(directory={_quote(desc.directory)})")
    clauses.append(f"(jobType={_quote(desc.job_type)})")
    if desc.project:
        clauses.append(f"(project={_quote(desc.project)})")
    if desc.environment:
        env = " ".join(_quote(e) for e in desc.environment)
        clauses.append(f"(environment={env})")
    if desc.max_memory:
        clauses.append(f"(maxMemory={desc.max_memory})")
    text = "&" + "".join(clauses)
    if text not in _RENDERED:
        _remember(text, desc)
    return text


def _remember(text: str, desc: JobDescription) -> None:
    """Keep the attribute values tokenising *text*, just rendered from
    *desc*, yields — when those are *desc*'s own: a ``str`` between
    quotes (``_quote`` refused any ``'"'``) and an ``int`` as a bare
    token come back unchanged.  Anything else is left to a cold parse."""
    if type(desc.arguments) is not list or type(desc.environment) is not list:
        return
    strings = {"executable": [desc.executable], "arguments": desc.arguments,
               "queue": [desc.queue], "stdout": [desc.stdout],
               "stderr": [desc.stderr] if desc.stderr else [],
               "directory": [desc.directory] if desc.directory else [],
               "jobType": [desc.job_type],
               "project": [desc.project] if desc.project else [],
               "environment": desc.environment}
    numbers = {"count": desc.count, "maxWallTime": desc.max_wall_time}
    if desc.max_memory:
        numbers["maxMemory"] = desc.max_memory
    if (any(type(n) is not int for n in numbers.values())
            or any(type(v) is not str
                   for values in strings.values() for v in values)):
        return
    attrs = {name: tuple(values) for name, values in strings.items()
             if values}
    for name, n in numbers.items():
        attrs[name] = (str(n),)
    if len(_RENDERED) >= _RENDERED_MAX:
        del _RENDERED[next(iter(_RENDERED))]
    _RENDERED[text] = attrs


def parse_rsl(text: str) -> JobDescription:
    """Parse RSL text into a :class:`JobDescription`."""
    attrs = _RENDERED.get(text)
    if attrs is None:
        attrs = _tokenise(text)
    return _attrs_to_description(attrs)


def _tokenise(text: str) -> Dict[str, List[str]]:
    """RSL text -> attribute name -> its values, as written."""
    text = text.strip()
    if not text.startswith("&"):
        raise RslError("RSL must start with '&'")
    pos = 1
    attrs: Dict[str, List[str]] = {}
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch != "(":
            raise RslError(f"expected '(' at offset {pos}, got {ch!r}")
        pos += 1
        m = _NAME_RE.match(text, pos)
        if m is None:
            raise RslError(f"expected attribute name at offset {pos}")
        name = m.group()
        pos = m.end()
        # Skip whitespace around '='.
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text) or text[pos] != "=":
            raise RslError(f"expected '=' after {name!r} at offset {pos}")
        pos += 1
        values, pos = _parse_values(text, pos)
        if pos >= len(text) or text[pos] != ")":
            raise RslError(f"unterminated clause for {name!r}")
        pos += 1
        if name in attrs:
            raise RslError(f"duplicate attribute {name!r}")
        attrs[name] = values
    return attrs


def _parse_values(text: str, pos: int) -> Tuple[List[str], int]:
    """Parse one or more quoted strings / bare tokens, ending at ')'."""
    values: List[str] = []
    while pos < len(text):
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text) or text[pos] == ")":
            break
        if text[pos] == '"':
            end = text.find('"', pos + 1)
            if end == -1:
                raise RslError(f"unterminated string at offset {pos}")
            values.append(text[pos + 1:end])
            pos = end + 1
        else:
            m = _TOKEN_RE.match(text, pos)
            values.append(m.group())
            pos = m.end()
    if not values:
        raise RslError(f"empty value list at offset {pos}")
    return values, pos


def _attrs_to_description(attrs: Dict[str, Sequence[str]]
                          ) -> JobDescription:
    known = _INT_ATTRS | _STR_ATTRS | _LIST_ATTRS
    unknown = set(attrs) - known
    if unknown:
        raise RslError(f"unknown RSL attributes {sorted(unknown)}")
    if "executable" not in attrs:
        raise RslError("RSL is missing the executable attribute")

    def one(name: str, default: str = "") -> str:
        if name not in attrs:
            return default
        vals = attrs[name]
        if len(vals) != 1:
            raise RslError(f"attribute {name!r} takes exactly one value")
        return vals[0]

    def integer(name: str, default: int) -> int:
        raw = one(name, str(default))
        try:
            return int(raw)
        except ValueError:
            raise RslError(f"attribute {name!r} needs an integer, "
                           f"got {raw!r}") from None

    return JobDescription(
        executable=one("executable"),
        arguments=attrs.get("arguments", []),
        count=integer("count", 1),
        max_wall_time=integer("maxWallTime", 3600),
        queue=one("queue", "normal"),
        stdout=one("stdout"),
        stderr=one("stderr"),
        directory=one("directory"),
        job_type=one("jobType", "single"),
        project=one("project"),
        environment=attrs.get("environment", []),
        max_memory=integer("maxMemory", 0),
    )
