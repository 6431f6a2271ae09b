"""Unit tests for the scan-capable clustered store."""

import pytest

from repro.workloads.sorted_store import SortedKVStore


@pytest.fixture
def store():
    s = SortedKVStore(value_size=1024)
    for key in range(100):
        s.insert(key)
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
    touches = store.read(10)
    assert len(touches) == 3  # root, leaf, data
    assert touches[0].vpage == store.index_base
    assert touches[-1].vpage >= store.data_base


def test_scan_touches_consecutive_pages(store):
    touches = store.scan(0, 50)
    data_pages = [t.vpage for t in touches if t.vpage >= store.data_base]
    assert data_pages == sorted(data_pages)
    assert data_pages == list(range(data_pages[0], data_pages[-1] + 1))
    expected_pages = (50 - 1) // store.items_per_page + 1
    assert len(data_pages) in (expected_pages, expected_pages + 1)


def test_scan_clamps_at_max_key(store):
    touches = store.scan(95, 100)
    data_pages = [t.vpage for t in touches if t.vpage >= store.data_base]
    assert data_pages[-1] == store.data_vpage(99)


def test_scan_validation(store):
    with pytest.raises(ValueError):
        store.scan(0, 0)
    with pytest.raises(KeyError):
        store.scan(5000, 10)


def test_missing_key_raises(store):
    with pytest.raises(KeyError):
        store.read(5000)


def test_update_writes(store):
    assert store.update(3)[-1].is_write
    assert not store.read(3)[-1].is_write


def test_rmw_combines(store):
    assert len(store.read_modify_write(3)) == 6


def test_footprint_counts_index_and_data(store):
    footprint = store.footprint_pages(100)
    data_pages = (100 - 1) // store.items_per_page + 1
    assert footprint == data_pages + store.hash_pages(100)
    assert store.hash_pages(100) >= 2  # root plus at least one leaf


def test_reinsert_is_update(store):
    touches = store.insert(5)
    assert store.n_records == 100
    assert touches[-1].is_write
