"""Unit tests for the scan-capable clustered store and its operation layout."""

import pytest
from kv_ops import ops

from repro.workloads.kvstore import INSERT, READ, RMW, SCAN, UPDATE
from repro.workloads.sorted_store import SortedKVStore


@pytest.fixture
def store():
    s = SortedKVStore(value_size=1024)
    ops(s, INSERT, range(100))
    return s


def test_validation():
    with pytest.raises(ValueError):
        SortedKVStore(value_size=0)
    with pytest.raises(ValueError):
        SortedKVStore(value_size=5000)


def test_clustered_location(store):
    assert store.location(5) == 5
    assert store.location(999) is None


def test_read_probes_index_then_data(store):
    [touches] = ops(store, READ, [10])
    assert len(touches) == 3  # root, leaf, data
    assert touches[0].vpage == store.index_base
    assert [t.probe for t in touches] == [True, True, False]
    assert touches[-1].vpage >= store.data_base


def test_scan_touches_consecutive_pages(store):
    [touches] = ops(store, SCAN, [0], scan_lengths=[50])
    data_pages = [t.vpage for t in touches if t.vpage >= store.data_base]
    assert data_pages == sorted(data_pages)
    assert data_pages == list(range(data_pages[0], data_pages[-1] + 1))
    expected_pages = (50 - 1) // store.items_per_page + 1
    assert len(data_pages) in (expected_pages, expected_pages + 1)
    assert all(t.lines == store.scan_lines for t in touches[2:])


def test_scan_clamps_at_max_key(store):
    [touches] = ops(store, SCAN, [95], scan_lengths=[100])
    data_pages = [t.vpage for t in touches if t.vpage >= store.data_base]
    assert data_pages[-1] == store.data_vpage(99)


def test_scan_stops_at_largest_key_inserted_before_it(store):
    top = store.items_per_page * 40  # a page of its own, past key 99's
    __, early, __, late = ops(
        store, [INSERT, SCAN, INSERT, SCAN], [top - 1, 95, top, 95],
        scan_lengths=[1000, 1000],
    )
    assert early[-1].vpage == store.data_vpage(top - 1)
    assert late[-1].vpage == store.data_vpage(top)


def test_update_writes(store):
    [update] = ops(store, UPDATE, [3])
    [read] = ops(store, READ, [3])
    assert update[-1].write
    assert not read[-1].write


def test_insert_writes_leaf_not_root():
    store = SortedKVStore(value_size=1024)
    [touches] = ops(store, INSERT, [0])
    assert [t.write for t in touches] == [False, True, True]


def test_rmw_combines(store):
    [touches] = ops(store, RMW, [3])
    assert len(touches) == 6


def test_footprint_counts_index_and_data(store):
    footprint = store.footprint_pages(100)
    data_pages = (100 - 1) // store.items_per_page + 1
    assert footprint == data_pages + store.hash_pages(100)
    assert store.hash_pages(100) >= 2  # root plus at least one leaf


def test_reinsert_is_update(store):
    [touches] = ops(store, INSERT, [5])
    assert store.n_records == 100
    assert touches[-1].write
    assert not touches[1].write  # the leaf is written only by a new key
