"""Unit tests for TimeSeries analysis helpers."""

import pytest

from repro.telemetry import TimeSeries


def make(points):
    s = TimeSeries("s", unit="u")
    for t, v in points:
        s.append(t, v)
    return s


def test_append_and_iterate():
    s = make([(0, 1.0), (3, 2.0), (6, 3.0)])
    assert len(s) == 3
    assert list(s) == [(0.0, 1.0), (3.0, 2.0), (6.0, 3.0)]
    assert s.times == [0.0, 3.0, 6.0]
    assert s.values == [1.0, 2.0, 3.0]


def test_append_rejects_time_regression():
    s = make([(5, 1.0)])
    with pytest.raises(ValueError):
        s.append(4, 2.0)


def test_stats():
    s = make([(0, 2.0), (1, 4.0), (2, 6.0)])
    assert s.max() == 6.0
    assert s.mean() == 4.0


def test_empty_series_stats():
    s = TimeSeries("empty")
    assert s.max() == 0.0
    assert s.mean() == 0.0
    assert s.nonzero_fraction() == 0.0


def test_value_at():
    s = make([(0, 1.0), (10, 5.0)])
    assert s.value_at(-1) == 0.0
    assert s.value_at(0) == 1.0
    assert s.value_at(9.9) == 1.0
    assert s.value_at(10) == 5.0
    assert s.value_at(100) == 5.0


def test_slice():
    s = make([(0, 1.0), (5, 2.0), (10, 3.0), (15, 4.0)])
    part = s.slice(4, 11)
    assert part.times == [5.0, 10.0]


def test_peaks_detection():
    s = make([(0, 0), (3, 10), (6, 12), (9, 0), (12, 0), (15, 8), (18, 0)])
    assert s.peaks(threshold=5) == [(3.0, 9.0), (15.0, 18.0)]
    assert s.peak_count(threshold=5) == 2


def test_peak_at_end_is_closed():
    s = make([(0, 0), (3, 10)])
    assert s.peaks(threshold=5) == [(3.0, 3.0)]


def test_merged_peaks_respects_min_gap():
    s = make([(0, 10), (3, 0), (6, 10), (9, 0), (30, 10), (33, 0)])
    # Gap between first two peaks is 3 s; between 2nd and 3rd is 21 s.
    assert s.peak_count(threshold=5, min_gap=5) == 2
    assert s.peak_count(threshold=5, min_gap=0) == 3


def test_plateau_detection():
    points = [(t, 85.0) for t in range(0, 60, 3)] + [(60, 0.0)]
    s = make(points)
    plats = s.plateau(80, 90, min_duration=30)
    assert len(plats) == 1
    a, b = plats[0]
    assert a == 0.0 and b >= 57.0


def test_nonzero_fraction():
    s = make([(0, 0.0), (1, 1.0), (2, 0.0), (3, 2.0)])
    assert s.nonzero_fraction() == 0.5


def _naive_value_at(series, t):
    """The pre-bisect linear scan, kept as the reference semantics."""
    best = 0.0
    for st, sv in zip(series.times, series.values):
        if st > t:
            break
        best = sv
    return best


def _naive_slice(series, t0, t1):
    out = TimeSeries(series.name, series.unit)
    for t, v in series:
        if t0 <= t <= t1:
            out.append(t, v)
    return out


def test_value_at_bisect_matches_naive_scan():
    # Includes duplicate timestamps (change-driven gauges can record
    # several levels at one simulated instant).
    s = make([(0, 1.0), (1, 2.0), (1, 3.0), (2.5, 4.0), (7, 5.0)])
    probes = [-1.0, 0.0, 0.5, 1.0, 1.5, 2.5, 3.0, 6.9, 7.0, 100.0]
    for t in probes:
        assert s.value_at(t) == _naive_value_at(s, t), t


def test_slice_bisect_matches_naive_scan():
    s = make([(0, 1.0), (1, 2.0), (1, 3.0), (2.5, 4.0), (7, 5.0)])
    windows = [(-5, -1), (-1, 0), (0, 1), (1, 1), (0.5, 2.5),
               (2.6, 6.9), (0, 100), (8, 9)]
    for t0, t1 in windows:
        got = s.slice(t0, t1)
        want = _naive_slice(s, t0, t1)
        assert list(got) == list(want), (t0, t1)
        assert got.name == want.name and got.unit == want.unit


def test_slice_returns_independent_copy():
    s = make([(0, 1.0), (1, 2.0)])
    sliced = s.slice(0, 1)
    sliced.append(2, 9.0)
    assert len(s) == 2  # the original is untouched
