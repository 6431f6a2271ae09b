"""Unit tests for the slab KV store model and its operation layout."""

import pytest
from kv_ops import ops

from repro.sim.config import PAGE_SIZE
from repro.workloads.kvstore import CACHE_LINE, INSERT, READ, RMW, UPDATE, SlabKVStore


def loaded(keys, value_size=1024) -> SlabKVStore:
    store = SlabKVStore(value_size=value_size)
    ops(store, INSERT, keys)
    return store


def test_value_size_validation():
    with pytest.raises(ValueError):
        SlabKVStore(value_size=0)
    with pytest.raises(ValueError):
        SlabKVStore(value_size=PAGE_SIZE)  # chunk exceeds a page


def test_items_packed_per_page():
    store = SlabKVStore(value_size=1024)
    assert store.items_per_page == PAGE_SIZE // (1024 + 56)


def test_insert_assigns_sequential_slots():
    store = loaded(range(4))
    ops(store, INSERT, range(4, 10))
    assert store.n_records == 10
    assert store.location(0) == 0
    assert store.location(9) == 9


def test_records_share_pages_in_insertion_order():
    store = SlabKVStore(value_size=1024)
    per_page = store.items_per_page
    touches = [op[-1] for op in ops(store, INSERT, range(per_page + 1))]
    first_page = touches[0].vpage
    assert all(t.vpage == first_page for t in touches[:per_page])
    assert touches[per_page].vpage == first_page + 1


def test_read_touches_hash_then_data():
    store = loaded([7])
    [touches] = ops(store, READ, [7])
    assert len(touches) == 2
    hash_touch, data_touch = touches
    assert hash_touch.vpage < store.data_base and hash_touch.probe
    assert data_touch.vpage >= store.data_base and not data_touch.probe
    assert not any(t.write for t in touches)


def test_value_lines_scale_with_value_size():
    small = loaded([0], value_size=128)
    large = loaded([0], value_size=2048)
    [small_read] = ops(small, READ, [0])
    [large_read] = ops(large, READ, [0])
    assert large_read[-1].lines > small_read[-1].lines
    assert large_read[-1].lines == (2048 + 56) // CACHE_LINE
    assert large_read[0].lines == 1  # the bucket probe reads one line


def test_update_writes_data_page():
    store = loaded([3])
    [touches] = ops(store, UPDATE, [3])
    assert touches[-1].write
    assert not touches[0].write  # hash probe is a read


def test_insert_writes_bucket_and_record():
    store = SlabKVStore(value_size=1024)
    [touches] = ops(store, INSERT, [3])
    assert [t.write for t in touches] == [True, True]


def test_read_modify_write_combines():
    store = loaded([3])
    [touches] = ops(store, RMW, [3])
    assert len(touches) == 4
    assert touches[1].write is False
    assert touches[3].write is True


def test_missing_key_raises():
    store = loaded([1])
    with pytest.raises(KeyError):
        ops(store, READ, [42])


def test_reinsert_is_update():
    store = loaded([1])
    slot = store.location(1)
    [touches] = ops(store, INSERT, [1])
    assert store.location(1) == slot
    assert store.n_records == 1
    assert not touches[0].write  # an update probes its bucket read-only


def test_footprint_accounts_hash_and_data():
    store = SlabKVStore(value_size=1024)
    n = 1000
    footprint = store.footprint_pages(n)
    data_pages = (n - 1) // store.items_per_page + 1
    assert footprint == data_pages + store.hash_pages(n)
    assert store.footprint_pages(0) >= 1
