"""Property-based tests for small core components."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mm.watermarks import compute_watermarks
from repro.sim.stats import WindowedSeries
from repro.sim.vclock import VirtualClock
from repro.workloads.kvstore import INSERT, READ, SlabKVStore, touch_columns
from repro.workloads.ycsb import ZIPFIAN_CONSTANT, Zipfian


@given(
    node=st.integers(min_value=1, max_value=1 << 24),
    extra=st.integers(min_value=0, max_value=1 << 24),
)
def test_watermarks_always_well_ordered(node, extra):
    marks = compute_watermarks(node, node + extra)
    assert 0 < marks.min_pages <= marks.low_pages <= marks.high_pages
    # The reserve never swallows the node.
    assert marks.high_pages <= max(4, node // 2) or node < 16


@given(
    events=st.lists(
        st.tuples(st.integers(min_value=0, max_value=10**10),
                  st.floats(min_value=0, max_value=100, allow_nan=False)),
        max_size=100,
    ),
    window=st.floats(min_value=0.05, max_value=100),
)
@settings(deadline=None)
def test_windowed_series_preserves_total(events, window):
    series = WindowedSeries(window)
    for time_ns, value in events:
        series.record(time_ns, value)
    total = sum(point.value for point in series.totals())
    assert total == np.float64(sum(value for __, value in events)) or abs(
        total - sum(value for __, value in events)
    ) < 1e-6
    ids = [point.window_id for point in series.totals()]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))


@given(deltas=st.lists(st.tuples(st.booleans(), st.integers(0, 10**9)), max_size=50))
def test_clock_buckets_partition_time(deltas):
    clock = VirtualClock()
    for is_app, delta in deltas:
        if is_app:
            clock.advance_app(delta)
        else:
            clock.advance_system(delta)
    assert clock.app_ns + clock.system_ns == clock.now_ns


@given(n=st.integers(min_value=2, max_value=2000))
def test_incremental_zeta_matches_direct_sum(n):
    zipf = Zipfian(ZIPFIAN_CONSTANT)
    zipf.zeta(n // 2)  # grown in two steps, as inserts extend the keyspace
    incremental = zipf.zeta(n)
    direct = float(np.sum(np.arange(1, n + 1, dtype=np.float64) ** (-ZIPFIAN_CONSTANT)))
    assert abs(incremental - direct) < 1e-9 * max(1.0, direct)


@given(
    keys=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=300),
    value_size=st.integers(min_value=64, max_value=3500),
)
@settings(max_examples=100)
def test_kvstore_slab_invariants(keys, value_size):
    store = SlabKVStore(value_size=value_size)
    unique = list(dict.fromkeys(keys))
    # Keys inserted in one batch are distinct; inserting them all again
    # updates the present ones in place.
    touch_columns(store, np.full(len(unique), INSERT), np.array(unique))
    touch_columns(store, np.full(len(keys), INSERT), np.array(keys))
    assert store.n_records == len(unique)
    slots = [store.location(key) for key in unique]
    # Distinct keys occupy distinct slots; slots are dense from zero.
    assert sorted(slots) == list(range(len(unique)))
    assert store.data_pages_used() <= len(unique) // store.items_per_page + 1
    vpage, write, lines, boundary, probe = touch_columns(
        store, np.full(len(unique), READ), np.array(unique)
    )
    assert (vpage[boundary] >= store.data_base).all()
    assert (lines[boundary] >= 1).all()


@given(
    ranks=st.lists(st.floats(min_value=0, max_value=1, exclude_max=True), max_size=50),
    n=st.integers(min_value=1, max_value=10_000),
)
def test_zipf_rank_stays_in_range(ranks, n):
    p = np.array(ranks, dtype=np.float64)
    rank = Zipfian(ZIPFIAN_CONSTANT).ranks(p, np.full(len(p), n))
    assert ((0 <= rank) & (rank < n)).all()
