"""Unit tests for page tables and reverse mappings."""

import pytest

from repro.machine import Machine
from repro.mm.page import Page
from repro.mm.page_table import PageTable
from repro.sim.config import SimulationConfig


def _table(pid: int = 1) -> PageTable:
    """A table whose one region covers vpages 0..31."""
    table = PageTable(pid)
    table.add_region(0, 32)
    return table


def test_map_and_lookup():
    table = _table()
    page = Page(0)
    table.map(5, page)
    assert table.pfn(5) == page.pfn
    assert 5 in table
    assert len(table) == 1


def test_lookup_missing_returns_none():
    table = _table()
    assert table.pfn(9) is None
    assert 9 not in table
    assert table.pfn(99) is None  # outside every region
    assert 99 not in table


def test_map_registers_rmap():
    table = _table()
    page = Page(0)
    table.map(5, page)
    assert page.rmap == [(1, 5)]
    assert page.mapped


def test_double_map_rejected():
    table = _table()
    table.map(5, Page(0))
    with pytest.raises(ValueError):
        table.map(5, Page(0))


def test_map_outside_every_region_rejected():
    table = _table()
    page = Page(0)
    with pytest.raises(ValueError):
        table.map(99, page)
    assert not page.mapped and len(table) == 0


def test_unmap_detaches_rmap():
    table = _table()
    page = Page(0)
    table.map(5, page)
    assert table.unmap(5) == page.pfn
    assert page.rmap == []
    assert not page.mapped
    assert table.pfn(5) is None
    assert len(table) == 0


def test_unmap_missing_raises():
    table = _table()
    with pytest.raises(KeyError):
        table.unmap(5)
    with pytest.raises(KeyError):
        table.unmap(99)


def test_poison_keeps_the_pfn_and_marks_the_column():
    table = _table()
    page = Page(0)
    table.map(5, page)
    assert table.poison(5) == page.pfn
    assert table.poison(5) == page.pfn  # already poisoned
    assert table.pfn(5) == page.pfn
    assert table.v2p[table._slot(5)] == -2 - page.pfn
    assert table.poison(6) is None  # unmapped: nothing to poison


def test_touch_sets_accessed_and_dirty():
    """What the MMU does on an ordinary access: the bits are page columns."""
    system = Machine(SimulationConfig(dram_pages=(8,), pm_pages=(8,)), "static").system
    process = system.create_process()
    process.mmap_anon(0, 4)
    system.touch(process, 0, is_write=False)
    pfn = process.page_table.pfn(0)
    store = system.pagestore
    assert store.pte_accessed[pfn] and not store.pte_dirty[pfn]
    system.touch(process, 0, is_write=True)
    assert store.pte_dirty[pfn]


def test_shared_page_multiple_tables():
    page = Page(0, is_anon=False)
    t1, t2 = _table(1), _table(2)
    t1.map(0, page)
    t2.map(7, page)
    assert page.rmap == [(1, 0), (2, 7)]
    t1.unmap(0)
    assert page.rmap == [(2, 7)]


def test_entries_listing():
    table = _table()
    table.add_region(100, 4)
    table.map(101, Page(0))
    table.map(2, Page(0))
    table.map(1, Page(0))
    assert table.vpages() == [1, 2, 101]
