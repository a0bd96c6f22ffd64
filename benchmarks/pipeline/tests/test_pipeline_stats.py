"""The percentile helper and its sample-count reporting."""

import statistics

import pytest

import stats


def test_percentile_interpolates_between_ranks():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert stats.percentile(values, 0) == 10.0
    assert stats.percentile(values, 50) == 30.0
    assert stats.percentile(values, 100) == 50.0
    assert stats.percentile(values, 25) == 20.0
    assert stats.percentile(values, 90) == pytest.approx(46.0)


def test_percentile_ignores_input_order_and_rejects_bad_input():
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert stats.supported(1000, 99.0)
    assert not stats.supported(999, 99.0)
    assert stats.tail(list(range(1000)))[0] == 99.0
    assert stats.tail(list(range(999)))[0] == 90.0
    assert stats.tail(list(range(99)))[0] == 50.0
    assert stats.tail([5.0])[1] == 5.0


def test_summary_reports_sample_count_and_statistics_quartiles():
    values = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    s = stats.summary(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert s == {"median": 6.0, "q1": q1, "q3": q3, "n": 6}
    assert stats.summary([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0,
                                    "n": 1}
