"""Executable profiles: what a payload does when a grid node runs it.

A payload's first line is the magic ``#!repro-exe``; subsequent header
lines are ``key=value`` options, at minimum ``profile=<name>``.  The rest
is padding (to reach a target size) — real bytes that compress, transfer
and store like any user binary.

Profiles registered here are looked up by the simulated compute node at
execution time.  Built-in profiles cover the evaluation's needs: fixed
runtimes for timing studies, sleeps, echoes, and two *real computations*
(Monte-Carlo pi, word counting) used by the examples.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import JobError

__all__ = [
    "ExecutableProfile", "FixedRuntimeProfile", "SleepProfile",
    "EchoProfile", "MonteCarloPiProfile", "WordCountProfile",
    "register_profile", "get_profile", "make_payload", "parse_payload",
    "PROFILE_REGISTRY",
]

_MAGIC = b"#!repro-exe"


class ExecutableProfile:
    """Behaviour of one executable type.

    Subclasses override :meth:`runtime`, :meth:`output_size` and
    :meth:`compute_output`; *arguments* are the job's RSL argument
    strings and *options* the key=value pairs baked into the payload
    header.
    """

    name = "abstract"

    def runtime(self, arguments: Sequence[str], count: int,
                options: Dict[str, str], rng: random.Random) -> float:
        raise NotImplementedError

    def output_size(self, arguments: Sequence[str], count: int,
                    options: Dict[str, str]) -> int:
        """Predicted output size (drives partial-output polling)."""
        return len(self.compute_output(arguments, count, options))

    def compute_output(self, arguments: Sequence[str], count: int,
                       options: Dict[str, str]) -> bytes:
        raise NotImplementedError


class FixedRuntimeProfile(ExecutableProfile):
    """Runs for a constant time, emits constant-size output."""

    name = "fixed"

    def runtime(self, arguments, count, options, rng):
        return float(options.get("runtime", "10"))

    def output_size(self, arguments, count, options):
        return int(options.get("output_bytes", "1024"))

    def compute_output(self, arguments, count, options):
        size = self.output_size(arguments, count, options)
        line = b"fixed-profile output\n"
        return (line * (size // len(line) + 1))[:size]


class SleepProfile(ExecutableProfile):
    """Sleeps for its first argument's seconds (like /bin/sleep)."""

    name = "sleep"

    def runtime(self, arguments, count, options, rng):
        if not arguments:
            return 1.0
        try:
            return max(0.0, float(arguments[0]))
        except ValueError:
            raise JobError(f"sleep: bad duration {arguments[0]!r}") from None

    def compute_output(self, arguments, count, options):
        return b"slept\n"


class EchoProfile(ExecutableProfile):
    """Echoes its arguments, one per line (near-instant)."""

    name = "echo"

    def runtime(self, arguments, count, options, rng):
        return float(options.get("runtime", "0.5"))

    def compute_output(self, arguments, count, options):
        return ("\n".join(arguments) + "\n").encode()


class MonteCarloPiProfile(ExecutableProfile):
    """Estimates pi by Monte-Carlo sampling — a *real* computation.

    ``arguments = [samples, seed]``.  Runtime scales with the sample
    count; the output is the actual estimate, so examples can aggregate
    estimates from many grid jobs into a converging value.
    """

    name = "mcpi"

    def _samples_seed(self, arguments) -> Tuple[int, int]:
        samples = int(arguments[0]) if arguments else 10000
        seed = int(arguments[1]) if len(arguments) > 1 else 0
        if samples < 1:
            raise JobError("mcpi: samples must be >= 1")
        return samples, seed

    def runtime(self, arguments, count, options, rng):
        samples, _ = self._samples_seed(arguments)
        per_sample = float(options.get("sec_per_sample", "1e-5"))
        # Perfectly parallel across the allocated cores.
        return samples * per_sample / max(1, count)

    def compute_output(self, arguments, count, options):
        samples, seed = self._samples_seed(arguments)
        rng = random.Random(seed)
        hits = 0
        for _ in range(min(samples, 200_000)):  # bound real CPU in tests
            x, y = rng.random(), rng.random()
            if x * x + y * y <= 1.0:
                hits += 1
        effective = min(samples, 200_000)
        estimate = 4.0 * hits / effective
        return (f"samples={samples}\nhits={hits}\n"
                f"pi_estimate={estimate:.10f}\n").encode()


class WordCountProfile(ExecutableProfile):
    """Counts words of the text baked into its payload options."""

    name = "wordcount"

    def runtime(self, arguments, count, options, rng):
        text = options.get("text", "")
        return 0.2 + len(text) * float(options.get("sec_per_char", "1e-4"))

    def compute_output(self, arguments, count, options):
        text = options.get("text", "")
        counts: Dict[str, int] = {}
        for word in text.lower().split():
            word = word.strip(".,;:!?\"'()")
            if word:
                counts[word] = counts.get(word, 0) + 1
        lines = [f"{word} {n}" for word, n in
                 sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
        return ("\n".join(lines) + "\n").encode()


#: Global registry the simulated nodes consult.
PROFILE_REGISTRY: Dict[str, ExecutableProfile] = {}


def register_profile(profile: ExecutableProfile) -> None:
    """Register *profile* under its ``name`` (overwrites)."""
    PROFILE_REGISTRY[profile.name] = profile


def get_profile(name: str) -> ExecutableProfile:
    try:
        return PROFILE_REGISTRY[name]
    except KeyError:
        raise JobError(f"unknown executable profile {name!r}") from None


for _p in (FixedRuntimeProfile(), SleepProfile(), EchoProfile(),
           MonteCarloPiProfile(), WordCountProfile()):
    register_profile(_p)


# -------------------------------------------------------------- payloads

def make_payload(profile: str = "fixed", size: Optional[int] = None,
                 **options: str) -> bytes:
    """Build an executable payload for *profile*.

    *size* pads the payload (with pseudo-random, mildly compressible
    bytes) to a target length, so transfer/storage costs can be chosen
    independently of behaviour.  Extra keyword *options* land in the
    header and are passed to the profile at run time.
    """
    get_profile(profile)  # fail fast on unknown profiles
    lines = [_MAGIC.decode(), f"profile={profile}"]
    for key, value in sorted(options.items()):
        if "\n" in str(value):
            raise JobError(f"payload option {key!r} must be single-line")
        lines.append(f"{key}={value}")
    header = ("\n".join(lines) + "\n--\n").encode()
    if size is None or size <= len(header):
        return header
    pad_rng = random.Random(len(header) + size)
    need = size - len(header)
    # Mostly incompressible padding with a modestly compressible tail,
    # like a real stripped binary (zlib gets ~10-15% off it).
    random_part = pad_rng.randbytes(need - need // 8)
    block = pad_rng.randbytes(64) * 16
    repeated_part = (block * (need // len(block) + 1))[: need // 8]
    return header + random_part + repeated_part


def parse_payload(payload: bytes) -> Tuple[str, Dict[str, str]]:
    """Extract ``(profile_name, options)`` from a payload's header.

    Raises :class:`~repro.errors.JobError` for blobs that are not
    repro executables — the grid node refusing to run garbage.
    """
    if not payload.startswith(_MAGIC):
        raise JobError("payload is not a repro executable (bad magic)")
    end = payload.find(b"\n--\n")  # slice the header alone, not the body
    if end < 0:
        raise JobError("payload header is not terminated")
    options: Dict[str, str] = {}
    for line in payload[:end].decode("utf-8", "replace").splitlines()[1:]:
        if "=" not in line:
            raise JobError(f"malformed payload header line {line!r}")
        key, _, value = line.partition("=")
        options[key] = value
    profile = options.pop("profile", "")
    if not profile:
        raise JobError("payload header lacks a profile")
    return profile, options
