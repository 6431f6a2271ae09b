"""Unit tests for the watermark-driven demotion daemon."""

import pytest

from repro.core.demotion import DemotionDaemon
from repro.core.state import move_to_promote
from repro.machine import Machine
from repro.mm.flags import PageFlags
from repro.mm.hardware import MemoryTier
from repro.mm.lruvec import ListKind
from repro.sim.config import SimulationConfig


@pytest.fixture
def machine():
    return Machine(SimulationConfig(dram_pages=(64,), pm_pages=(256,)), "multiclock")


def dram_kswapd(machine) -> DemotionDaemon:
    return next(d for d in machine.policy._kswapd if not d.node.is_pm)


def fill_dram(machine, process):
    dram = machine.system.nodes[0]
    vpage = 0
    while dram.can_allocate():
        page = dram.allocate_page(is_anon=True)
        process.page_table.map(vpage, page)
        dram.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
        vpage += 1
    return vpage


def test_no_work_without_pressure(machine):
    assert dram_kswapd(machine).run(0) == 0
    assert machine.stats.get("migrate.demotions") == 0


def test_pressure_triggers_demotion_to_pm(machine):
    process = machine.create_process()
    process.mmap_anon(0, 128)
    fill_dram(machine, process)
    dram = machine.system.nodes[0]
    assert dram.free_pages == 0
    work = dram_kswapd(machine).run(0)
    assert work > 0
    assert machine.stats.get("migrate.demotions") > 0
    assert dram.free_pages >= dram.watermarks.high_pages


def test_demoted_pages_keep_their_mappings(machine):
    process = machine.create_process()
    process.mmap_anon(0, 128)
    mapped = fill_dram(machine, process)
    dram_kswapd(machine).run(0)
    assert len(process.page_table) == mapped


def test_promote_list_relieved_first(machine):
    """Section III-C step 1: promote-list pages leave before reclaim.

    On a pressured DRAM node the promote list cannot go higher, so its
    pages move to the active list."""
    process = machine.create_process()
    process.mmap_anon(0, 128)
    fill_dram(machine, process)
    dram = machine.system.nodes[0]
    victim = machine.system.pagestore.pages[process.page_table.pfn(0)]
    victim.lru.remove(victim)
    victim.set(PageFlags.ACTIVE)
    dram.lruvec.list_of(victim, ListKind.ACTIVE).add_head(victim)
    move_to_promote(dram, victim)
    dram_kswapd(machine).run(0)
    assert victim.lru.kind is ListKind.ACTIVE
    assert machine.system.tier_of(victim) is MemoryTier.DRAM


def test_pm_promote_list_under_pressure_promotes_up(machine):
    """On a pressured PM node, promote-list pages migrate to DRAM."""
    pm = machine.system.nodes[1]
    process = machine.create_process()
    process.mmap_anon(0, 1024)
    vpage = 0
    while pm.can_allocate():
        page = pm.allocate_page(is_anon=True)
        process.page_table.map(vpage, page)
        pm.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
        vpage += 1
    hot = machine.system.pagestore.pages[process.page_table.pfn(0)]
    hot.lru.remove(hot)
    hot.set(PageFlags.ACTIVE)
    pm.lruvec.list_of(hot, ListKind.ACTIVE).add_head(hot)
    move_to_promote(pm, hot)
    pm_kswapd = next(d for d in machine.policy._kswapd if d.node.is_pm)
    pm_kswapd.run(0)
    assert machine.system.tier_of(hot) is MemoryTier.DRAM


def test_referenced_pages_survive_demotion_scan(machine):
    process = machine.create_process()
    process.mmap_anon(0, 128)
    fill_dram(machine, process)
    hot = machine.system.pagestore.pages[process.page_table.pfn(5)]
    machine.system.pagestore.pte_accessed[hot.pfn] = True
    dram_kswapd(machine).run(0)
    assert machine.system.tier_of(hot) is MemoryTier.DRAM


def test_pm_pressure_falls_back_to_swap(machine):
    """The lowest tier evicts to the backing store (edge 4)."""
    small = Machine(SimulationConfig(dram_pages=(16,), pm_pages=(32,)), "multiclock")
    process = small.create_process()
    process.mmap_anon(0, 64)
    process.mmap_anon(100, 32)
    for node in small.system.nodes.values():
        vbase = 0 if not node.is_pm else 100
        i = 0
        while node.can_allocate():
            page = node.allocate_page(is_anon=True)
            process.page_table.map(vbase + i, page)
            node.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
            i += 1
    pm_kswapd = next(d for d in small.policy._kswapd if d.node.is_pm)
    pm_kswapd.run(0)
    assert small.system.backing.swapped_pages > 0
