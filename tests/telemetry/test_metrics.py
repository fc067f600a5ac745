"""Boundary tests for LatencyHistogram.quantile (q=0 and q=1)."""

import pytest

from repro.telemetry.metrics import LatencyHistogram


def test_quantile_zero_returns_observed_min():
    h = LatencyHistogram()
    for v in (0.004, 0.05, 2.0):
        h.observe(v)
    # Previously this returned bounds[0] (0.001) — a latency nobody
    # ever observed.  q=0 must be the observed minimum.
    assert h.quantile(0.0) == 0.004


def test_quantile_one_returns_observed_max():
    h = LatencyHistogram()
    for v in (0.004, 0.05, 2.0):
        h.observe(v)
    assert h.quantile(1.0) == 2.0


def test_quantile_clamps_bucket_bound_into_observed_range():
    h = LatencyHistogram()
    h.observe(0.5)  # lands in the (0.1, 1.0] bucket
    # The bucket upper bound (1.0) exceeds anything observed; every
    # quantile of a single observation is that observation.
    for q in (0.0, 0.25, 0.5, 1.0):
        assert h.quantile(q) == 0.5


def test_quantile_midpoints_stay_ordered():
    h = LatencyHistogram()
    for v in (0.0005, 0.005, 0.05, 0.5, 5.0):
        h.observe(v)
    qs = [h.quantile(q) for q in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)]
    assert qs == sorted(qs)
    assert qs[0] == h.min
    assert qs[-1] == h.max


def test_quantile_empty_and_out_of_range():
    h = LatencyHistogram()
    assert h.quantile(0.0) == 0.0
    assert h.quantile(1.0) == 0.0
    h.observe(1.0)
    with pytest.raises(ValueError):
        h.quantile(-0.1)
    with pytest.raises(ValueError):
        h.quantile(1.1)
