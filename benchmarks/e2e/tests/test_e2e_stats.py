"""Nearest-rank percentiles and the ten-samples-beyond rule."""

import pytest

from benchmarks.e2e import stats


def test_nearest_rank_matches_the_textbook_example():
    data = [15, 20, 35, 40, 50]
    assert stats.nearest_rank(data, 5) == 15
    assert stats.nearest_rank(data, 30) == 20
    assert stats.nearest_rank(data, 40) == 20
    assert stats.nearest_rank(data, 50) == 35
    assert stats.nearest_rank(data, 100) == 50


def test_nearest_rank_returns_a_sample_and_ignores_order():
    data = [3.0, 1.0, 2.0, 10.0]
    assert stats.nearest_rank(data, 50) == 2.0
    assert stats.nearest_rank(data, 75) == 3.0
    assert stats.nearest_rank(data, 76) == 10.0


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)
    with pytest.raises(ValueError):
        stats.nearest_rank([1.0], 0)
    with pytest.raises(ValueError):
        stats.nearest_rank([1.0], 101)


@pytest.mark.parametrize("n,expected", [
    (1000, 99), (999, 95), (200, 95), (199, 90), (100, 90), (99, 75),
    (40, 75), (39, 50), (1, 50),
])
def test_top_percentile_needs_ten_samples_beyond(n, expected):
    assert stats.top_percentile(n) == expected


def test_tail_caps_the_percentile():
    data = list(range(1, 1201))
    assert stats.tail(data) == (99, 1188)
    assert stats.tail(data, cap=90) == (90, 1080)
    assert stats.tail(data, cap=50) == (50, 600)


def test_spread_shares():
    values = [10.0, 10.0, 10.0, 10.0, 11.0]
    assert stats.minmax_share(values) == pytest.approx(0.1)
    q = stats.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert q == {"q1": 1.5, "median": 3.0, "q3": 4.5}
