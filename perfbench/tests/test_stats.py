import pytest

import stats


def test_nearest_rank_percentile():
    values = list(range(10, 0, -1))  # order must not matter
    assert stats.percentile(values, 50) == 5
    assert stats.percentile(values, 90) == 9
    assert stats.percentile(values, 100) == 10
    assert stats.percentile(values, 1) == 1
    # rank = ceil(q * n / 100), multiplied first: 55 * 20 / 100 = 11 exactly
    assert stats.percentile(list(range(1, 21)), 55) == 11


@pytest.mark.parametrize("n, q, ok", [
    (20, 50, True), (19, 50, False),     # the median needs 10 samples above it
    (100, 90, True), (99, 90, False),    # p90 needs 100 samples
    (1000, 99, True), (999, 99, False),
])
def test_ten_beyond_rule(n, q, ok):
    assert stats.reportable(n, q) is ok
    values = [float(i) for i in range(n)]
    if ok:
        assert stats.checked_percentile(values, q) == stats.percentile(values, q)
    else:
        with pytest.raises(ValueError, match="beyond"):
            stats.checked_percentile(values, q)


def test_samples_beyond_counts_strictly_above():
    assert stats.samples_beyond(20, 50) == 10
    assert stats.samples_beyond(10, 100) == 0


def test_median_and_errors():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)
