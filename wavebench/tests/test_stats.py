import pytest

from wavebench.stats import median_rate, tail, windowed_tail


def test_tail_leaves_exactly_ten_samples_beyond():
    t = tail(range(1, 101))
    assert (t.value, t.percentile, t.beyond, t.samples) == (90, 90.0, 10, 100)


def test_tail_at_eleven_samples_is_the_minimum_with_ten_beyond():
    t = tail([5.0, 1.0, 4.0, 3.0, 2.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0])
    assert (t.value, t.beyond, t.samples) == (1.0, 10, 11)


def test_tail_ignores_input_order():
    values = [3.0, 1.0, 2.0] * 7
    assert tail(values) == tail(sorted(values))
    assert tail(values).value == 2.0  # rank 11 of 21 falls in the run of 2.0s


def test_tail_with_ten_or_fewer_samples_says_how_many_lie_beyond():
    t = tail([4.0, 2.0, 3.0])
    assert (t.value, t.beyond, t.samples) == (2.0, 2, 3)


def test_tail_of_nothing_raises():
    with pytest.raises(ValueError):
        tail([])


def test_windowed_tail_of_a_run_shorter_than_one_window_is_the_plain_tail():
    batches = [[float(v) for v in range(k, k + 10)] for k in range(0, 90, 10)]
    assert windowed_tail(batches) == tail(range(90))


def test_windowed_tail_is_the_median_over_windows_of_whole_batches():
    # 300 requests in batches of 10: three windows of 100, each tail at rank 90.
    slow, fast = [[100.0] * 10] * 10, [[float(v) for v in range(10)]] * 10
    t = windowed_tail(slow + fast + fast)
    assert (t.windows, t.samples, t.beyond, t.percentile) == (3, 300, 10, 90.0)
    assert t.value == 8.0  # one slow window does not move the median of the three


def test_windows_hold_a_fixed_count_of_whole_batches_and_leave_the_rest_out():
    batches = [[1.0] * 12 for _ in range(20)]  # 9 batches of 12 make a window
    assert (windowed_tail(batches).windows, windowed_tail(batches).samples) == (2, 216)
    assert windowed_tail(batches[:3]).windows == 1
    # the rank within a window does not move with the run's length
    assert windowed_tail([[float(v) for v in range(12)]] * 17).value == 10.0
    assert windowed_tail([[float(v) for v in range(12)]] * 9).value == 10.0


def test_median_rate_is_the_median_of_per_batch_rates():
    assert median_rate([(10.0, 1.0), (10.0, 2.0), (10.0, 100.0)]) == 5.0
