"""Log2Histogram bucketing, moments, and serialisation."""

import math

import pytest

from repro.metrics.histogram import Log2Histogram


def test_bucket_indexing_follows_bit_length():
    hist = Log2Histogram("t")
    for value, bucket in ((0, 0), (1, 1), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4)):
        before = hist.buckets.get(bucket, 0)
        hist.record(value)
        assert hist.buckets[bucket] == before + 1


def test_bucket_bounds_partition_the_integers():
    previous_upper = -1
    for index in range(12):
        lo = Log2Histogram.bucket_lower_bound(index)
        hi = Log2Histogram.bucket_upper_bound(index)
        assert lo == previous_upper + 1
        assert hi >= lo
        previous_upper = hi


def test_exact_moments_survive_bucketing():
    hist = Log2Histogram("t")
    values = [0, 1, 5, 5, 1000, 12345]
    for value in values:
        hist.record(value)
    assert hist.count == len(values) == len(hist)
    assert hist.total == sum(values)
    assert hist.mean == pytest.approx(sum(values) / len(values))
    assert hist.min_value == 0
    assert hist.max_value == 12345


def test_rejects_negative_values():
    hist = Log2Histogram("t")
    with pytest.raises(ValueError, match="negative"):
        hist.record(-1)
    assert hist.count == 0


def test_negative_error_is_one_line_and_names_the_histogram():
    hist = Log2Histogram("promotion_lat")
    with pytest.raises(ValueError) as excinfo:
        hist.record(-7)
    message = str(excinfo.value)
    assert "promotion_lat" in message
    assert "-7" in message
    assert "\n" not in message


def test_zero_is_a_real_observation_with_exact_moments():
    hist = Log2Histogram("t")
    hist.record(0)
    assert hist.count == 1
    assert hist.total == 0
    assert hist.min_value == 0
    assert hist.max_value == 0
    assert hist.mean == 0.0
    assert hist.buckets == {0: 1}
    assert hist.dense_buckets() == [(0, 1)]
    data = hist.to_dict()
    assert data["count"] == 1 and data["sum"] == 0
    assert data["min"] == 0 and data["max"] == 0


def test_numpy_scalars_coerce_to_python_ints():
    np = pytest.importorskip("numpy")
    hist = Log2Histogram("t")
    hist.record(np.int64(0))
    hist.record(np.int64(5))
    assert type(hist.total) is int
    assert type(hist.min_value) is int and type(hist.max_value) is int
    assert hist.buckets == {0: 1, 3: 1}
    with pytest.raises(ValueError, match="negative"):
        hist.record(np.int64(-3))


def test_dense_buckets_fill_gaps():
    hist = Log2Histogram("t")
    hist.record(1)
    hist.record(1024)  # bit_length 11
    dense = hist.dense_buckets()
    assert [index for index, _ in dense] == list(range(12))
    assert sum(count for _, count in dense) == 2


def test_cumulative_buckets_are_monotonic_and_end_at_count():
    hist = Log2Histogram("t")
    for value in (1, 2, 2, 9, 9, 9, 500):
        hist.record(value)
    cumulative = hist.cumulative_buckets()
    uppers = [upper for upper, _ in cumulative]
    counts = [count for _, count in cumulative]
    assert uppers == sorted(uppers)
    assert counts == sorted(counts)
    assert counts[-1] == hist.count


def test_quantiles_land_in_the_right_bucket():
    hist = Log2Histogram("t")
    for _ in range(99):
        hist.record(10)
    hist.record(100_000)
    p50 = hist.quantile(0.5)
    assert Log2Histogram.bucket_lower_bound(4) <= p50 <= Log2Histogram.bucket_upper_bound(4)
    p999 = hist.quantile(0.999)
    assert p999 > Log2Histogram.bucket_upper_bound(4)
    assert math.isnan(Log2Histogram("empty").quantile(0.5))
    with pytest.raises(ValueError, match="quantile"):
        hist.quantile(1.5)


def test_to_dict_round_trips_through_json():
    import json

    hist = Log2Histogram("lat", "help text", unit="ns")
    for value in (3, 70, 70, 4096):
        hist.record(value)
    data = json.loads(json.dumps(hist.to_dict()))
    assert data["name"] == "lat"
    assert data["unit"] == "ns"
    assert data["count"] == 4
    assert data["sum"] == 3 + 70 + 70 + 4096
    assert sum(bucket["count"] for bucket in data["buckets"]) == 4
    les = [bucket["le"] for bucket in data["buckets"]]
    assert les == sorted(les)


def _looped(values, into=None):
    hist = into if into is not None else Log2Histogram("t")
    for value in values:
        hist.record(value)
    return hist


def _state(hist):
    return hist.buckets, hist.count, hist.total, hist.min_value, hist.max_value


@pytest.mark.parametrize("values", [
    [],
    [0],
    [1],
    [0, 0, 1],
    [(1 << k) for k in range(63)],
    [(1 << k) - 1 for k in range(1, 64)],
    # Past 2**53 a float cannot tell 2**k - 1 from 2**k.
    [(1 << 53) + 1, (1 << 60) - 1, 1 << 60, (1 << 63) - 1, (1 << 63) - 1],
    [5, 3, 5, 70, 12345, 4096, 4095, 0],
])
def test_record_many_equals_a_record_loop(values):
    import numpy as np

    for given in (values, np.array(values, dtype=np.int64)):
        hist = Log2Histogram("t")
        hist.record_many(given)
        assert _state(hist) == _state(_looped(values))
    # On top of earlier observations too.
    hist = _looped([9, 2])
    hist.record_many(values)
    assert _state(hist) == _state(_looped([9, 2] + values))


def test_record_many_of_nothing_leaves_an_empty_histogram_empty():
    hist = Log2Histogram("t")
    hist.record_many([])
    assert hist.count == 0 and hist.min_value is None and hist.max_value is None


def test_record_many_rejects_negatives_before_recording_any():
    hist = _looped([4])
    with pytest.raises(ValueError, match="negative value -3"):
        hist.record_many([1, 2, -3, 8])
    assert _state(hist) == _state(_looped([4]))
