"""Unit tests for the generic PFRA scan machinery."""

import dataclasses

import pytest

from repro.machine import Machine
from repro.mm.flags import PageFlags
from repro.mm.lruvec import ListKind
from repro.mm.vmscan import (
    ScanResult,
    deactivate_excess_active,
    demote_page,
    mark_page_accessed,
    shrink_inactive_list,
)
from repro.sim.config import SimulationConfig


@pytest.fixture
def system():
    return Machine(SimulationConfig(dram_pages=(64,), pm_pages=(256,)), "static").system


def resident_page(system, node, process, vpage, *, kind=ListKind.INACTIVE):
    """Allocate a page on ``node``, map it, and put it on a list."""
    page = node.allocate_page(is_anon=True)
    process.page_table.map(vpage, page)
    node.lruvec.list_of(page, kind).add_head(page)
    if kind is ListKind.ACTIVE:
        page.set(PageFlags.ACTIVE)
    return page


def test_mark_accessed_inactive_ladder(system):
    """Edges 2 then 6: unreferenced -> referenced -> active."""
    node = system.nodes[0]
    process = system.create_process()
    process.mmap_anon(0, 8)
    page = resident_page(system, node, process, 0)
    mark_page_accessed(system, page)
    assert page.test(PageFlags.REFERENCED)
    assert page.lru.kind is ListKind.INACTIVE
    mark_page_accessed(system, page)
    assert page.lru.kind is ListKind.ACTIVE
    assert page.test(PageFlags.ACTIVE)
    assert not page.test(PageFlags.REFERENCED)


def test_mark_accessed_active_ladder(system):
    """Edges 7/8: active unreferenced -> active referenced."""
    node = system.nodes[0]
    process = system.create_process()
    process.mmap_anon(0, 8)
    page = resident_page(system, node, process, 0, kind=ListKind.ACTIVE)
    mark_page_accessed(system, page)
    assert page.test(PageFlags.REFERENCED)
    assert page.lru.kind is ListKind.ACTIVE


def test_mark_accessed_second_reference_hook(system):
    """Edge 10 fires only through the supplied hook."""
    node = system.nodes[0]
    process = system.create_process()
    process.mmap_anon(0, 8)
    page = resident_page(system, node, process, 0, kind=ListKind.ACTIVE)
    page.set(PageFlags.REFERENCED)
    calls = []
    mark_page_accessed(system, page, on_second_reference=lambda n, p: calls.append((n, p)))
    assert calls == [(node, page)]


def test_mark_accessed_without_hook_keeps_page_active(system):
    node = system.nodes[0]
    process = system.create_process()
    process.mmap_anon(0, 8)
    page = resident_page(system, node, process, 0, kind=ListKind.ACTIVE)
    page.set(PageFlags.REFERENCED)
    mark_page_accessed(system, page)
    assert page.lru.kind is ListKind.ACTIVE


def test_mark_accessed_promote_list_self_loop(system):
    """Edge 12: promote-list pages stay put on further access."""
    node = system.nodes[0]
    process = system.create_process()
    process.mmap_anon(0, 8)
    page = resident_page(system, node, process, 0, kind=ListKind.PROMOTE)
    mark_page_accessed(system, page)
    assert page.lru.kind is ListKind.PROMOTE
    assert page.test(PageFlags.REFERENCED)


def test_mark_accessed_off_lru_is_noop(system):
    node = system.nodes[0]
    page = node.allocate_page(is_anon=True)
    mark_page_accessed(system, page)  # must not raise
    assert page.lru is None


def test_deactivate_moves_unreferenced_to_inactive(system):
    node = system.nodes[0]
    process = system.create_process()
    process.mmap_anon(0, 16)
    pages = [resident_page(system, node, process, i, kind=ListKind.ACTIVE) for i in range(4)]
    result = deactivate_excess_active(system, node, True, budget=16)
    assert result.deactivated == 4
    for page in pages:
        assert page.lru.kind is ListKind.INACTIVE
        assert not page.test(PageFlags.ACTIVE)


def test_deactivate_gives_accessed_pages_second_chance(system):
    node = system.nodes[0]
    process = system.create_process()
    process.mmap_anon(0, 16)
    page = resident_page(system, node, process, 0, kind=ListKind.ACTIVE)
    system.pagestore.pte_accessed[process.page_table.pfn(0)] = True
    result = deactivate_excess_active(system, node, True, budget=16)
    assert result.referenced == 1
    assert page.lru.kind is ListKind.ACTIVE
    assert page.test(PageFlags.REFERENCED)


def test_deactivate_budget_respected(system):
    node = system.nodes[0]
    process = system.create_process()
    process.mmap_anon(0, 64)
    for i in range(10):
        resident_page(system, node, process, i, kind=ListKind.ACTIVE)
    result = deactivate_excess_active(system, node, True, budget=3)
    assert result.scanned == 3


def test_shrink_inactive_evicts_at_lowest_tier(system):
    pm = system.nodes[1]
    process = system.create_process()
    process.mmap_anon(0, 16)
    pages = [resident_page(system, pm, process, i) for i in range(4)]
    result = shrink_inactive_list(system, pm, True, target_free=2, budget=16, demote_dest=None)
    assert result.evicted == 2
    assert system.backing.swapped_pages == 2
    # Evicted pages are unmapped; survivors remain.
    resident = sum(1 for page in pages if page.mapped)
    assert resident == 2


def test_shrink_inactive_demotes_when_dest_given(system):
    dram, pm = system.nodes[0], system.nodes[1]
    process = system.create_process()
    process.mmap_anon(0, 16)
    page = resident_page(system, dram, process, 0)
    result = shrink_inactive_list(system, dram, True, target_free=1, budget=16, demote_dest=pm)
    assert result.demoted == 1
    assert page.node_id == pm.node_id
    assert page.lru.kind is ListKind.INACTIVE
    assert page.mapped  # demotion keeps the mapping


def test_demote_page_drops_recency_and_joins_inactive_head(system):
    """An active page (OPM demotes those too) lands unreferenced at the
    head of the destination's inactive list of its family."""
    dram, pm = system.nodes[0], system.nodes[1]
    process = system.create_process()
    process.mmap_anon(0, 16)
    resident_page(system, pm, process, 0)
    page = resident_page(system, dram, process, 1, kind=ListKind.ACTIVE)
    page.set(PageFlags.REFERENCED)
    assert demote_page(system, page, pm)
    assert page.node_id == pm.node_id
    assert page.lru is pm.lruvec.list_for(ListKind.INACTIVE, True)
    assert page.lru.head is page
    assert not page.test(PageFlags.REFERENCED | PageFlags.ACTIVE)
    assert system.stats.get("migrate.demotions") == 1


def test_demote_page_leaves_a_locked_page_in_place(system):
    dram, pm = system.nodes[0], system.nodes[1]
    process = system.create_process()
    process.mmap_anon(0, 16)
    page = resident_page(system, dram, process, 0)
    page.set(PageFlags.LOCKED | PageFlags.REFERENCED)
    assert not demote_page(system, page, pm)
    assert page.node_id == dram.node_id
    assert page.lru is dram.lruvec.list_for(ListKind.INACTIVE, True)
    assert page.test(PageFlags.REFERENCED)


def test_shrink_inactive_referenced_pages_climb(system):
    """Edges 1 and 6 fire during reclaim scans too."""
    pm = system.nodes[1]
    process = system.create_process()
    process.mmap_anon(0, 16)
    page = resident_page(system, pm, process, 0)
    system.pagestore.pte_accessed[process.page_table.pfn(0)] = True
    result = shrink_inactive_list(system, pm, True, target_free=1, budget=1, demote_dest=None)
    assert result.referenced == 1
    assert page.test(PageFlags.REFERENCED)
    # Second round with the flag already set: activation.
    system.pagestore.pte_accessed[process.page_table.pfn(0)] = True
    result = shrink_inactive_list(system, pm, True, target_free=1, budget=1, demote_dest=None)
    assert result.activated == 1
    assert page.lru.kind is ListKind.ACTIVE


def test_shrink_inactive_skips_locked(system):
    pm = system.nodes[1]
    process = system.create_process()
    process.mmap_anon(0, 16)
    page = resident_page(system, pm, process, 0)
    page.set(PageFlags.LOCKED)
    result = shrink_inactive_list(system, pm, True, target_free=1, budget=16, demote_dest=None)
    assert result.evicted == 0
    assert page.mapped


def test_shrink_inactive_rotates_locked_to_head(system):
    """Pinned pages rotate out of the way instead of clogging the tail."""
    pm = system.nodes[1]
    process = system.create_process()
    process.mmap_anon(0, 16)
    locked = resident_page(system, pm, process, 0)
    locked.set(PageFlags.LOCKED)
    clean = resident_page(system, pm, process, 1)
    inactive = pm.lruvec.list_for(ListKind.INACTIVE, True)
    assert inactive.tail is locked
    result = shrink_inactive_list(system, pm, True, target_free=1, budget=16, demote_dest=None)
    assert result.evicted == 1  # the clean page behind the locked one
    assert not clean.mapped
    assert locked.mapped
    assert inactive.head is locked  # rotated, so the next scan starts past it


def test_shrink_inactive_rotates_unevictable_to_head(system):
    pm = system.nodes[1]
    process = system.create_process()
    process.mmap_anon(0, 16)
    pinned = resident_page(system, pm, process, 0)
    pinned.set(PageFlags.UNEVICTABLE)
    inactive = pm.lruvec.list_for(ListKind.INACTIVE, True)
    shrink_inactive_list(system, pm, True, target_free=1, budget=16, demote_dest=None)
    assert pinned.mapped
    assert inactive.head is pinned


def test_shrink_inactive_rotates_on_failed_demotion(system):
    """A full demotion destination must not stall the scan at the tail."""
    dram, pm = system.nodes[0], system.nodes[1]
    process = system.create_process()
    process.mmap_anon(0, 16)
    while pm.can_allocate():  # exhaust the destination
        filler = pm.allocate_page(is_anon=True)
        pm.lruvec.list_of(filler, ListKind.INACTIVE).add_head(filler)
    page = resident_page(system, dram, process, 0)
    inactive = dram.lruvec.list_for(ListKind.INACTIVE, True)
    result = shrink_inactive_list(system, dram, True, target_free=1, budget=4, demote_dest=pm)
    assert result.demoted == 0
    assert result.evicted == 0  # a demotion tier exists, so no swap-out
    assert page.mapped
    assert page.node_id == dram.node_id
    assert inactive.head is page  # rotated: the scan made progress


def test_shrink_inactive_stops_at_target(system):
    pm = system.nodes[1]
    process = system.create_process()
    process.mmap_anon(0, 16)
    for i in range(8):
        resident_page(system, pm, process, i)
    result = shrink_inactive_list(system, pm, True, target_free=3, budget=16, demote_dest=None)
    assert result.evicted == 3


def test_scan_result_merge_adds_every_field():
    names = [field.name for field in dataclasses.fields(ScanResult)]
    total = ScanResult(**{name: i + 1 for i, name in enumerate(names)})
    other = ScanResult(**{name: 100 * (i + 1) for i, name in enumerate(names)})
    assert total.merge(other) is total
    assert dataclasses.asdict(total) == {name: 101 * (i + 1) for i, name in enumerate(names)}
