"""Unit tests for executable profiles and payloads."""

import random

import pytest

from repro.errors import JobError
from repro.workloads import (
    ExecutableProfile, WorkloadSpec, get_profile, make_payload,
    make_workload, parse_payload, register_profile,
)


def test_payload_roundtrip():
    payload = make_payload("fixed", runtime="30", output_bytes="512")
    profile, options = parse_payload(payload)
    assert profile == "fixed"
    assert options == {"runtime": "30", "output_bytes": "512"}


def test_payload_padding_to_size():
    payload = make_payload("echo", size=10_000)
    assert len(payload) == 10_000
    profile, _ = parse_payload(payload)
    assert profile == "echo"


def test_payload_smaller_than_header():
    payload = make_payload("echo", size=5)
    assert len(payload) > 5  # header always survives
    assert parse_payload(payload)[0] == "echo"


def test_payload_validation():
    with pytest.raises(JobError):
        make_payload("no-such-profile")
    with pytest.raises(JobError):
        make_payload("echo", note="two\nlines")
    with pytest.raises(JobError):
        parse_payload(b"not an exe")
    with pytest.raises(JobError):
        parse_payload(b"#!repro-exe\nprofile=echo\n(no terminator)")
    with pytest.raises(JobError):
        parse_payload(b"#!repro-exe\njunk-line\n--\n")
    with pytest.raises(JobError):
        parse_payload(b"#!repro-exe\nkey=v\n--\n")  # no profile


def test_fixed_profile():
    p = get_profile("fixed")
    rng = random.Random(0)
    assert p.runtime([], 1, {"runtime": "42"}, rng) == 42.0
    assert p.output_size([], 1, {"output_bytes": "100"}) == 100
    assert len(p.compute_output([], 1, {"output_bytes": "100"})) == 100


def test_sleep_profile():
    p = get_profile("sleep")
    rng = random.Random(0)
    assert p.runtime(["7.5"], 1, {}, rng) == 7.5
    assert p.runtime([], 1, {}, rng) == 1.0
    with pytest.raises(JobError):
        p.runtime(["soon"], 1, {}, rng)


def test_echo_profile():
    p = get_profile("echo")
    assert p.compute_output(["a", "b"], 1, {}) == b"a\nb\n"


def test_mcpi_profile_real_estimate():
    p = get_profile("mcpi")
    out = p.compute_output(["50000", "1"], 1, {})
    estimate = float(out.decode().splitlines()[-1].split("=")[1])
    assert abs(estimate - 3.14159) < 0.05
    # Deterministic given the seed.
    assert p.compute_output(["50000", "1"], 1, {}) == out
    # Runtime scales with samples, shrinks with cores.
    rng = random.Random(0)
    t1 = p.runtime(["100000"], 1, {}, rng)
    t4 = p.runtime(["100000"], 4, {}, rng)
    assert t1 == pytest.approx(4 * t4)


def test_wordcount_profile_real_counts():
    p = get_profile("wordcount")
    out = p.compute_output([], 1, {"text": "the cat and the hat and the bat"})
    lines = out.decode().splitlines()
    assert lines[0] == "the 3"
    assert "and 2" in lines


def test_custom_profile_registration():
    class Doubler(ExecutableProfile):
        name = "doubler"

        def runtime(self, arguments, count, options, rng):
            return 1.0

        def compute_output(self, arguments, count, options):
            return str(int(arguments[0]) * 2).encode()

    register_profile(Doubler())
    payload = make_payload("doubler")
    profile, _ = parse_payload(payload)
    assert get_profile(profile).compute_output(["21"], 1, {}) == b"42"


def test_unknown_profile_lookup():
    with pytest.raises(JobError):
        get_profile("missing")


# ---------------------------------------------------------------- generator

def test_make_workload_small():
    uploads = make_workload(WorkloadSpec(kind="small", count=5, seed=1))
    assert len(uploads) == 5
    names = [u[0] for u in uploads]
    assert len(set(names)) == 5
    for _, payload, _, _ in uploads:
        assert len(payload) <= 4096 + 200
        parse_payload(payload)


def test_make_workload_large_is_5mb():
    uploads = make_workload(WorkloadSpec(kind="large", count=1))
    assert len(uploads[0][1]) == 5 * 1024 * 1024


def test_make_workload_deterministic():
    a = make_workload(WorkloadSpec(kind="mixed", count=8, seed=7))
    b = make_workload(WorkloadSpec(kind="mixed", count=8, seed=7))
    assert [x[1] for x in a] == [x[1] for x in b]


def test_workload_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(kind="weird")
    with pytest.raises(ValueError):
        WorkloadSpec(count=0)


def test_parse_payload_reads_the_header_without_copying_the_body():
    from tests.db.test_wal import allocated_by

    payload = make_payload("fixed", size=4 << 20, runtime="5")
    allocated, parsed = allocated_by(lambda: parse_payload(payload))
    assert parsed == ("fixed", {"runtime": "5"})
    assert allocated < 64 * 1024
    # The terminator is looked for in the whole payload, as before.
    with pytest.raises(JobError, match="not terminated"):
        parse_payload(payload.replace(b"\n--\n", b"\n-+\n"))
    with pytest.raises(JobError, match="bad magic"):
        parse_payload(b"x" + payload)
