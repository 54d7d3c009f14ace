import pytest

from perfbench import stats


def test_tail_at_the_smallest_count():
    values = [float(v) for v in range(11)]
    tail = stats.tail(values)
    assert tail.value == 0.0
    assert tail.ops == 11 and tail.beyond == 10
    assert tail.percentile == pytest.approx(100 / 11)


def test_tail_at_a_large_count_is_p90_of_100():
    values = [float(v) for v in range(100, 0, -1)]  # order must not matter
    tail = stats.tail(values)
    assert tail.value == 90.0
    assert tail.percentile == 90.0
    assert sum(v > tail.value for v in values) == 10


def test_tail_has_ten_beyond_for_every_count():
    for n in (11, 12, 27, 36, 96, 1000):
        values = [float(v) for v in range(n)]
        tail = stats.tail(values)
        assert sum(v > tail.value for v in values) == 10
        assert tail.percentile == pytest.approx(100 * (n - 10) / n)


def test_tail_needs_more_than_ten():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


def test_median():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    with pytest.raises(ValueError):
        stats.median([])
