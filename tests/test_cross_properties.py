"""Cross-cutting property tests over several subsystems."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import Network
from repro.simkernel import Simulator
from repro.telemetry import TimeSeries
from repro.workloads import make_payload, parse_payload


# ---------------------------------------------------------------- payloads

option_values = st.from_regex(r"[A-Za-z0-9_.:-]{0,12}", fullmatch=True)


@settings(max_examples=50)
@given(st.sampled_from(["fixed", "sleep", "echo", "mcpi", "wordcount"]),
       st.one_of(st.none(), st.integers(min_value=0, max_value=100_000)),
       st.dictionaries(st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
                       .filter(lambda k: k != "profile"),
                       option_values, max_size=4))
def test_payload_roundtrip_property(profile, size, options):
    payload = make_payload(profile, size=size, **options)
    got_profile, got_options = parse_payload(payload)
    assert got_profile == profile
    assert got_options == {k: str(v) for k, v in options.items()}
    if size is not None and size > 4096:
        assert len(payload) == size


# ---------------------------------------------------------------- network

@settings(max_examples=30)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                min_size=1, max_size=15),
       st.integers(0, 7), st.integers(0, 7))
def test_route_is_valid_path(edges, src, dst):
    """Any route returned is a contiguous src->dst walk over real links."""
    sim = Simulator()
    net = Network(sim)
    for i in range(8):
        net.add_host(f"h{i}")
    for a, b in edges:
        if a != b:
            net.connect(f"h{a}", f"h{b}", bandwidth=100.0)
    from repro.errors import HardwareError
    try:
        path = net.route(f"h{src}", f"h{dst}")
    except HardwareError:
        return  # disconnected: acceptable outcome
    if src == dst:
        assert path == []
        return
    at = f"h{src}"
    for link in path:
        assert at in (link.a, link.b)
        at = link.b if link.a == at else link.a
    assert at == f"h{dst}"
    # BFS minimality: a path exists means its length is at most #hosts.
    assert len(path) <= 8


# ---------------------------------------------------------------- telemetry

series_points = st.lists(
    st.floats(min_value=0, max_value=100, allow_nan=False),
    min_size=1, max_size=40)


@settings(max_examples=50)
@given(series_points,
       st.floats(min_value=0.1, max_value=90),
       st.floats(min_value=0, max_value=20))
def test_merged_peaks_invariants(values, threshold, min_gap):
    s = TimeSeries("s")
    for i, v in enumerate(values):
        s.append(float(i), v)
    raw = s.peaks(threshold)
    merged = s.merged_peaks(threshold, min_gap)
    assert len(merged) <= len(raw)
    # Merged intervals are ordered, disjoint and within the time range.
    last_end = -1.0
    for start, end in merged:
        assert start >= 0 and end <= len(values) - 1
        assert start <= end
        assert start > last_end
        last_end = end
    # peak_count agrees with merged_peaks.
    assert s.peak_count(threshold, min_gap) == len(merged)


@settings(max_examples=50)
@given(series_points)
def test_nonzero_fraction_bounds(values):
    s = TimeSeries("s")
    for i, v in enumerate(values):
        s.append(float(i), v)
    f = s.nonzero_fraction()
    assert 0.0 <= f <= 1.0
