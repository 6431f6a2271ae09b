"""Figure-4 state machine: every transition 1-13 exercised by name.

This is the transition-coverage suite DESIGN.md promises for Figure 4.
Each test drives the real machinery (mark_page_accessed, kpromoted,
demotion, allocation) and asserts the page lands in the labelled state.
"""

import pytest

from repro.core.state import PageState, classify, move_to_promote, recycle_promote_to_active
from repro.machine import Machine
from repro.mm.flags import PageFlags
from repro.mm.hardware import MemoryTier
from repro.mm.lruvec import ListKind
from repro.sim.config import DaemonConfig, SimulationConfig


@pytest.fixture
def machine():
    return Machine(
        SimulationConfig(
            dram_pages=(64,),
            pm_pages=(256,),
            daemons=DaemonConfig(kpromoted_interval_s=0.001, kswapd_interval_s=0.001),
        ),
        "multiclock",
    )


def page_at(machine, process, vpage):
    return machine.system.pagestore.pages[process.page_table.pfn(vpage)]


def touch_supervised(machine, process, vpage, times=1):
    for __ in range(times):
        machine.system.touch(process, vpage)
        machine.policy.mark_page_accessed(page_at(machine, process, vpage))


def new_resident_page(machine, vpage=0):
    """An unsupervised resident page: the ladder only advances through
    the explicit ``mark_page_accessed`` calls the tests make."""
    process = machine.create_process()
    process.mmap_anon(0, 64)
    machine.system.touch(process, vpage)
    return process, page_at(machine, process, vpage)


def test_edge5_new_page_starts_inactive_unreferenced(machine):
    process = machine.create_process()
    process.mmap_anon(0, 8)
    machine.system.touch(process, 0)
    page = page_at(machine, process, 0)
    assert classify(page) is PageState.INACTIVE_UNREFERENCED


def test_edge2_supervised_access_marks_referenced(machine):
    process = machine.create_process()
    process.mmap_anon(0, 8, supervised=True)
    machine.system.touch(process, 0)
    page = page_at(machine, process, 0)
    assert classify(page) is PageState.INACTIVE_REFERENCED


def test_edge1_scan_advances_inactive_page(machine):
    """Unsupervised access is picked up by the kpromoted inactive scan."""
    process = machine.create_process()
    process.mmap_anon(0, 8)
    machine.system.touch(process, 0)
    page = page_at(machine, process, 0)
    kp = machine.policy._kpromoted[1]  # PM-node daemon... page is in DRAM
    kp_dram = machine.policy._kpromoted[0]
    machine.system.touch(process, 0)  # sets the PTE accessed bit again
    kp_dram.run(machine.clock.now_ns)
    assert classify(page) is PageState.INACTIVE_REFERENCED


def test_edge6_second_reference_activates(machine):
    __, page = new_resident_page(machine)
    machine.policy.mark_page_accessed(page)  # -> referenced
    machine.policy.mark_page_accessed(page)  # -> active
    assert classify(page) is PageState.ACTIVE_UNREFERENCED


def test_edge7_active_access_sets_referenced(machine):
    __, page = new_resident_page(machine)
    for __ in range(3):
        machine.policy.mark_page_accessed(page)
    assert classify(page) is PageState.ACTIVE_REFERENCED


def test_edge10_fourth_reference_moves_to_promote_list(machine):
    __, page = new_resident_page(machine)
    for __ in range(4):
        machine.policy.mark_page_accessed(page)
    assert classify(page) is PageState.PROMOTE
    assert page.test(PageFlags.PROMOTE)


def test_edge12_promote_list_access_self_loop(machine):
    __, page = new_resident_page(machine)
    for __ in range(5):
        machine.policy.mark_page_accessed(page)
    assert classify(page) is PageState.PROMOTE


def test_edge11_stale_promote_page_recycles_to_active(machine):
    """An unaccessed promote-list page returns to active unreferenced."""
    node = machine.system.nodes[1]
    process = machine.create_process()
    process.mmap_anon(0, 8)
    # Build a PM-resident page directly.
    page = node.allocate_page(is_anon=True)
    process.page_table.map(0, page)
    node.lruvec.list_of(page, ListKind.ACTIVE).add_head(page)
    page.set(PageFlags.ACTIVE)
    move_to_promote(node, page)
    page.clear(PageFlags.REFERENCED)  # simulate: joined long ago, never touched
    kp = next(k for k in machine.policy._kpromoted if k.node is node)
    kp.run(machine.clock.now_ns)
    assert classify(page) is PageState.ACTIVE_UNREFERENCED


def test_edge13_referenced_promote_page_promoted_to_dram(machine):
    node = machine.system.nodes[1]
    process = machine.create_process()
    process.mmap_anon(0, 8)
    page = node.allocate_page(is_anon=True)
    process.page_table.map(0, page)
    node.lruvec.list_of(page, ListKind.ACTIVE).add_head(page)
    page.set(PageFlags.ACTIVE)
    move_to_promote(node, page)
    machine.system.pagestore.pte_accessed[page.pfn] = True  # referenced again since joining
    kp = next(k for k in machine.policy._kpromoted if k.node is node)
    kp.run(machine.clock.now_ns)
    assert machine.system.tier_of(page) is MemoryTier.DRAM
    assert machine.stats.get("migrate.promotions") == 1


def test_edge9_idle_active_page_deactivates(machine):
    """Pressure rebalancing returns idle active pages to inactive."""
    from repro.mm.vmscan import deactivate_excess_active

    node = machine.system.nodes[0]
    __, page = new_resident_page(machine)
    machine.policy.mark_page_accessed(page)
    machine.policy.mark_page_accessed(page)
    assert classify(page) is PageState.ACTIVE_UNREFERENCED
    page.harvest_accessed()  # the page then goes idle for a long time
    deactivate_excess_active(machine.system, node, True, budget=64)
    assert classify(page) is PageState.INACTIVE_UNREFERENCED


def test_edge3_demotion_moves_page_down_a_tier(machine):
    from repro.mm.vmscan import shrink_inactive_list

    dram, pm = machine.system.nodes[0], machine.system.nodes[1]
    process = machine.create_process()
    process.mmap_anon(0, 8)
    machine.system.touch(process, 0)
    page = page_at(machine, process, 0)
    assert page.node_id == dram.node_id
    page.harvest_accessed()  # long idle: accessed bit aged away
    shrink_inactive_list(machine.system, dram, True, 1, 16, demote_dest=pm)
    assert page.node_id == pm.node_id
    assert classify(page) is PageState.INACTIVE_UNREFERENCED


def test_edge4_lowest_tier_page_freed_to_swap(machine):
    from repro.mm.vmscan import shrink_inactive_list

    pm = machine.system.nodes[1]
    process = machine.create_process()
    process.mmap_anon(0, 8)
    page = pm.allocate_page(is_anon=True)
    process.page_table.map(0, page)
    pm.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
    shrink_inactive_list(machine.system, pm, True, 1, 16, demote_dest=None)
    assert classify(page) is PageState.OFF_LRU
    assert machine.system.backing.is_swapped(process.pid, 0)


def test_classify_unevictable(machine):
    from repro.mm.address_space import MemoryRegion

    process = machine.create_process()
    process.mmap(MemoryRegion(0, 4, mlocked=True))
    machine.system.touch(process, 0)
    page = page_at(machine, process, 0)
    assert classify(page) is PageState.UNEVICTABLE


def test_move_to_promote_sets_flags():
    from repro.mm.hardware import MemoryTier
    from repro.mm.numa import NumaNode
    from repro.mm.page import Page

    node = NumaNode.create(0, MemoryTier.PM, 16, 64)
    page = node.allocate_page(is_anon=True)
    node.lruvec.list_of(page, ListKind.ACTIVE).add_head(page)
    page.set(PageFlags.ACTIVE)
    move_to_promote(node, page)
    assert page.test(PageFlags.PROMOTE)
    assert page.test(PageFlags.REFERENCED)
    assert not page.test(PageFlags.ACTIVE)
    assert page.lru.kind is ListKind.PROMOTE


def test_recycle_clears_promote_flag():
    from repro.mm.hardware import MemoryTier
    from repro.mm.numa import NumaNode

    node = NumaNode.create(0, MemoryTier.PM, 16, 64)
    page = node.allocate_page(is_anon=True)
    node.lruvec.list_of(page, ListKind.PROMOTE).add_head(page)
    page.set(PageFlags.PROMOTE)
    recycle_promote_to_active(node, page)
    assert not page.test(PageFlags.PROMOTE)
    assert page.test(PageFlags.ACTIVE)
    assert not page.test(PageFlags.REFERENCED)
    assert page.lru.kind is ListKind.ACTIVE
