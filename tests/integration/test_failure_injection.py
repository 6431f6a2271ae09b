"""Failure-injection tests: the paths a healthy run never takes.

Section III-C's last-resort chain — demote, then write back to block
storage, "before triggering the out-of-memory (OOM) killer as the last
option" — plus the migration-refusal cases (locked pages, unevictable
pages, full destinations) that drive the promote-list fallbacks.
"""

import pytest

from repro.machine import Machine
from repro.mm.address_space import MemoryRegion
from repro.mm.flags import PageFlags
from repro.mm.hardware import MemoryTier
from repro.mm.lruvec import ListKind
from repro.mm.system import OutOfMemoryError
from repro.sim.config import DaemonConfig, SimulationConfig

FAST = DaemonConfig(kpromoted_interval_s=0.001, kswapd_interval_s=0.0005)


def test_oom_fires_only_when_swap_is_full():
    config = SimulationConfig(
        dram_pages=(8,), pm_pages=(8,), swap_pages=4, daemons=FAST
    )
    machine = Machine(config, "multiclock")
    process = machine.create_process()
    process.mmap_anon(0, 64)
    with pytest.raises(OutOfMemoryError):
        for vpage in range(40):
            machine.touch(process, vpage)
    # Swap really was exhausted when the killer fired.
    assert machine.system.backing.swap_full
    assert machine.stats.get("oom.kills") == 1


def test_mlocked_working_set_larger_than_dram_survives_in_pm():
    """Unevictable pages cannot be demoted or evicted; they pin frames
    and the rest of the workload must live around them."""
    config = SimulationConfig(dram_pages=(32,), pm_pages=(128,), daemons=FAST)
    machine = Machine(config, "multiclock")
    process = machine.create_process()
    process.mmap(MemoryRegion(0, 24, mlocked=True))
    process.mmap_anon(100, 256)
    for vpage in range(24):
        machine.touch(process, vpage)
    locked_pages = [machine.system.pagestore.pages[process.page_table.pfn(v)] for v in range(24)]
    for round_ in range(5):
        for vpage in range(100, 220):
            machine.touch(process, vpage)
    for page in locked_pages:
        assert page.test(PageFlags.UNEVICTABLE)
        assert page.lru.kind is ListKind.UNEVICTABLE
        assert page.mapped  # never evicted
    assert machine.stats.get("oom.kills") == 0


def test_locked_promote_candidate_falls_back_to_active_list():
    """Section III-C: a promote-list page that cannot migrate ("for
    instance, the page is locked") moves to the active list instead."""
    from repro.core.state import move_to_promote

    config = SimulationConfig(dram_pages=(64,), pm_pages=(256,), daemons=FAST)
    machine = Machine(config, "multiclock")
    process = machine.create_process()
    process.mmap_anon(0, 8)
    pm = machine.system.nodes[1]
    page = pm.allocate_page(is_anon=True)
    process.page_table.map(0, page)
    pm.lruvec.list_of(page, ListKind.ACTIVE).add_head(page)
    page.set(PageFlags.ACTIVE)
    move_to_promote(pm, page)
    page.set(PageFlags.LOCKED)
    machine.system.pagestore.pte_accessed[page.pfn] = True
    kp = next(k for k in machine.policy._kpromoted if k.node.is_pm)
    kp.run(0)
    assert machine.system.tier_of(page) is MemoryTier.PM
    assert page.lru.kind is ListKind.ACTIVE


def test_promotion_with_both_tiers_full_does_not_livelock():
    """DRAM full, PM full: demand demotion cannot make room, so the
    promotion fails cleanly and the page stays hot in PM."""
    config = SimulationConfig(dram_pages=(16,), pm_pages=(16,), daemons=FAST)
    machine = Machine(config, "multiclock")
    process = machine.create_process()
    process.mmap_anon(0, 64)
    for node in machine.system.nodes.values():
        base = 0 if not node.is_pm else 32
        i = 0
        while node.can_allocate():
            page = node.allocate_page(is_anon=True)
            process.page_table.map(base + i, page)
            node.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
            i += 1
    victim = machine.system.pagestore.pages[process.page_table.pfn(32)]
    assert not machine.policy.promote_page(victim)
    assert machine.system.tier_of(victim) is MemoryTier.PM


def test_discard_region_with_swapped_pages_releases_slots():
    config = SimulationConfig(dram_pages=(8,), pm_pages=(8,), swap_pages=64, daemons=FAST)
    machine = Machine(config, "multiclock")
    process = machine.create_process()
    region = process.mmap_anon(0, 48)
    for vpage in range(40):
        machine.touch(process, vpage)
    assert machine.system.backing.swapped_pages > 0
    machine.system.discard_region(process, region)
    assert machine.system.backing.swapped_pages == 0
    assert len(process.page_table) == 0
    # Frames are genuinely reusable afterwards.
    process2 = machine.create_process()
    process2.mmap_anon(0, 8)
    machine.touch(process2, 0)


def test_shared_file_page_survives_one_mappers_discard():
    config = SimulationConfig(dram_pages=(64,), pm_pages=(256,))
    machine = Machine(config, "static")
    p1 = machine.create_process()
    p2 = machine.create_process()
    r1 = p1.mmap_file(0, 4)
    p2.mmap_file(0, 4)
    machine.touch(p1, 0)
    shared = machine.system.pagestore.pages[p1.page_table.pfn(0)]
    p2.page_table.map(0, shared)  # second mapping of the same file page
    machine.system.discard_region(p1, r1)
    assert shared.mapped  # p2 still maps it
    assert shared.lru is not None  # still resident


def test_swap_thrash_accounting_consistent():
    config = SimulationConfig(dram_pages=(8,), pm_pages=(8,), swap_pages=1024, daemons=FAST)
    machine = Machine(config, "multiclock")
    process = machine.create_process()
    process.mmap_anon(0, 64)
    for round_ in range(6):
        for vpage in range(48):
            machine.touch(process, vpage)
    backing = machine.system.backing
    assert backing.swap_ins > 0
    assert backing.swap_outs >= backing.swap_ins
    assert machine.stats.get("faults.major") == backing.swap_ins
    assert machine.stats.get("oom.kills") == 0
