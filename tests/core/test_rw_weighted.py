"""Unit tests for the Section VII RW-weighted MULTI-CLOCK extension."""

import pytest

from repro.core.state import move_to_promote
from repro.machine import Machine
from repro.mm.flags import PageFlags
from repro.mm.hardware import MemoryTier
from repro.mm.lruvec import ListKind
from repro.sim.config import SimulationConfig


@pytest.fixture
def machine():
    return Machine(SimulationConfig(dram_pages=(32,), pm_pages=(256,)), "multiclock-rw")


def pm_promote_candidate(machine, process, vpage, *, dirty):
    node = machine.system.nodes[1]
    page = node.allocate_page(is_anon=True)
    process.page_table.map(vpage, page)
    node.lruvec.list_of(page, ListKind.ACTIVE).add_head(page)
    page.set(PageFlags.ACTIVE)
    move_to_promote(node, page)
    if dirty:
        machine.system.pagestore.pte_dirty[page.pfn] = True  # written since the last harvest
    machine.system.pagestore.pte_accessed[page.pfn] = True
    return page


def fill_dram(machine):
    dram = machine.system.nodes[0]
    filler = machine.create_process()
    filler.mmap_anon(0, 64)
    vpage = 0
    while dram.can_allocate():
        page = dram.allocate_page(is_anon=True)
        filler.page_table.map(vpage, page)
        dram.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
        vpage += 1


def run_pm_kpromoted(machine):
    kp = next(k for k in machine.policy._kpromoted if k.node.is_pm)
    kp.run(machine.clock.now_ns)


def test_registered_with_features(machine):
    assert machine.policy.name == "multiclock-rw"
    assert "Read-dominance" in machine.policy.features.selection_promotion


def test_promotes_freely_while_dram_has_room(machine):
    process = machine.create_process()
    process.mmap_anon(0, 8)
    clean = pm_promote_candidate(machine, process, 0, dirty=False)
    run_pm_kpromoted(machine)
    assert machine.system.tier_of(clean) is MemoryTier.DRAM


def test_clean_pages_skipped_under_contention(machine):
    fill_dram(machine)
    process = machine.create_process()
    process.mmap_anon(0, 8)
    clean = pm_promote_candidate(machine, process, 0, dirty=False)
    run_pm_kpromoted(machine)
    assert machine.system.tier_of(clean) is MemoryTier.PM
    assert machine.stats.get("multiclock_rw.clean_skips_under_pressure") == 1
    # Skipped pages stay hot locally (recycled to the active list).
    assert clean.lru.kind is ListKind.ACTIVE


def test_dirty_pages_promoted_under_contention(machine):
    fill_dram(machine)
    process = machine.create_process()
    process.mmap_anon(0, 8)
    dirty = pm_promote_candidate(machine, process, 0, dirty=True)
    run_pm_kpromoted(machine)
    assert machine.system.tier_of(dirty) is MemoryTier.DRAM
    # Demand demotion made the room.
    assert machine.stats.get("migrate.demotions") >= 1


def test_dirty_bit_is_consumed_by_the_decision(machine):
    fill_dram(machine)
    process = machine.create_process()
    process.mmap_anon(0, 8)
    dirty = pm_promote_candidate(machine, process, 0, dirty=True)
    run_pm_kpromoted(machine)
    assert not machine.system.pagestore.pte_dirty[dirty.pfn]
