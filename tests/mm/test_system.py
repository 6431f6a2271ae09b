"""Unit tests for the MemorySystem access path."""

import pytest

from repro.machine import Machine
from repro.mm.flags import PageFlags
from repro.mm.hardware import MemoryTier
from repro.sim.config import LatencyConfig, SimulationConfig


@pytest.fixture
def system():
    return Machine(SimulationConfig(dram_pages=(64,), pm_pages=(256,)), "static").system


def test_node_layout(system):
    assert system.nodes[0].tier is MemoryTier.DRAM
    assert system.nodes[1].tier is MemoryTier.PM
    assert len(system.dram_nodes()) == 1
    assert len(system.pm_nodes()) == 1


def test_first_touch_faults_and_maps(system):
    process = system.create_process()
    process.mmap_anon(0, 8)
    system.touch(process, 0)
    assert process.page_table.pfn(0) is not None
    assert system.stats.get("faults.minor") == 1
    assert system.stats.get("alloc.pages") == 1


def test_second_touch_no_fault(system):
    process = system.create_process()
    process.mmap_anon(0, 8)
    system.touch(process, 0)
    system.touch(process, 0)
    assert system.stats.get("faults.minor") == 1
    assert system.stats.get("accesses.total") == 2


def test_access_sets_pte_bits(system):
    process = system.create_process()
    process.mmap_anon(0, 8)
    system.touch(process, 0)
    pfn = process.page_table.pfn(0)
    store = system.pagestore
    assert store.pte_accessed[pfn]
    assert not store.pte_dirty[pfn]
    system.touch(process, 0, is_write=True)
    assert store.pte_dirty[pfn]
    assert store.pages[pfn].test(PageFlags.DIRTY)


def test_access_latency_scales_with_lines(system):
    process = system.create_process()
    process.mmap_anon(0, 8)
    system.touch(process, 0)
    before = system.clock.app_ns
    system.touch(process, 0, lines=10)
    delta = system.clock.app_ns - before
    assert delta == 10 * LatencyConfig().dram_read_ns


def test_pm_access_slower_than_dram(system):
    process = system.create_process()
    process.mmap_anon(0, 512)
    # Fill DRAM so later touches land in PM.
    for vpage in range(300):
        system.touch(process, vpage)
    latency = LatencyConfig()
    page = system.pagestore.pages[process.page_table.pfn(299)]
    assert system.tier_of(page) is MemoryTier.PM
    before = system.clock.app_ns
    system.touch(process, 299)
    assert system.clock.app_ns - before == latency.pm_read_ns


def test_unmapped_vpage_raises(system):
    process = system.create_process()
    process.mmap_anon(0, 8)
    with pytest.raises(LookupError):
        system.touch(process, 99)


def test_new_pages_placed_on_inactive_list(system):
    process = system.create_process()
    process.mmap_anon(0, 8)
    system.touch(process, 0)
    page = system.pagestore.pages[process.page_table.pfn(0)]
    assert page.lru.name == "anon_inactive"


def test_file_pages_go_to_file_lists(system):
    process = system.create_process()
    process.mmap_file(0, 8)
    system.touch(process, 0)
    page = system.pagestore.pages[process.page_table.pfn(0)]
    assert not page.is_anon
    assert page.lru.name == "file_inactive"


def test_mlocked_region_pages_unevictable(system):
    from repro.mm.address_space import MemoryRegion

    process = system.create_process()
    process.mmap(MemoryRegion(0, 4, mlocked=True))
    system.touch(process, 0)
    page = system.pagestore.pages[process.page_table.pfn(0)]
    assert page.test(PageFlags.UNEVICTABLE)
    assert page.lru.name == "unevictable"


def test_supervised_region_marks_accessed_inline(system):
    """Section III-A supervised path: list state advances on access."""
    process = system.create_process()
    process.mmap_anon(0, 8, supervised=True)
    system.touch(process, 0)
    page = system.pagestore.pages[process.page_table.pfn(0)]
    assert page.test(PageFlags.REFERENCED)
    system.touch(process, 0)
    assert page.lru.name == "anon_active"


def test_unsupervised_region_only_sets_pte_bit(system):
    process = system.create_process()
    process.mmap_anon(0, 8)
    system.touch(process, 0)
    system.touch(process, 0)
    page = system.pagestore.pages[process.page_table.pfn(0)]
    assert page.lru.name == "anon_inactive"
    assert not page.test(PageFlags.REFERENCED)


def test_eviction_and_major_refault(system):
    process = system.create_process()
    process.mmap_anon(0, 8)
    system.touch(process, 0)
    page = system.pagestore.pages[process.page_table.pfn(0)]
    system.unmap_and_evict(page)
    assert process.page_table.pfn(0) is None
    assert system.backing.is_swapped(process.pid, 0)
    system.touch(process, 0)
    assert system.stats.get("faults.major") == 1
    assert not system.backing.is_swapped(process.pid, 0)


def test_evict_unevictable_rejected(system):
    from repro.mm.address_space import MemoryRegion

    process = system.create_process()
    process.mmap(MemoryRegion(0, 4, mlocked=True))
    system.touch(process, 0)
    page = system.pagestore.pages[process.page_table.pfn(0)]
    with pytest.raises(ValueError):
        system.unmap_and_evict(page)


def test_file_eviction_no_swap(system):
    process = system.create_process()
    process.mmap_file(0, 8)
    system.touch(process, 0)
    page = system.pagestore.pages[process.page_table.pfn(0)]
    system.unmap_and_evict(page)
    assert system.backing.swapped_pages == 0
    assert system.backing.file_writebacks == 1
    # Refault is a minor fault (re-read, no swap slot).
    system.touch(process, 0)
    assert system.stats.get("faults.major") == 0


def test_hint_fault_charges_and_notifies(system):
    process = system.create_process()
    process.mmap_anon(0, 8)
    system.touch(process, 0)
    table = process.page_table
    pfn = table.poison(0)
    assert table.v2p[table._slot(0)] == -2 - pfn
    before = system.clock.app_ns
    system.touch(process, 0)
    assert table.v2p[table._slot(0)] == pfn
    assert system.stats.get("faults.hint") == 1
    assert system.clock.app_ns - before >= LatencyConfig().hint_fault_ns


def test_dram_vs_pm_access_counters(system):
    process = system.create_process()
    process.mmap_anon(0, 8)
    system.touch(process, 0)
    assert system.stats.get("accesses.dram") == 1
    assert system.stats.get("accesses.pm") == 0


def test_attach_policy_twice_rejected(system):
    from repro.policies.static import StaticTieringPolicy

    with pytest.raises(RuntimeError):
        StaticTieringPolicy(system)


def test_used_pages_accounting(system):
    process = system.create_process()
    process.mmap_anon(0, 16)
    for vpage in range(10):
        system.touch(process, vpage)
    assert system.used_pages() == 10


def test_exhaustion_stalls_in_direct_reclaim_not_crash():
    """Filling memory past capacity degrades into direct reclaim (swap),
    never an uncaught MemoryError."""
    machine = Machine(
        SimulationConfig(dram_pages=(16,), pm_pages=(16,), swap_pages=256),
        "static",
    )
    process = machine.system.create_process()
    process.mmap_anon(0, 64)
    for vpage in range(64):
        machine.system.touch(process, vpage)
    assert machine.stats.get("accesses.total") + machine.stats.get("faults.minor") > 0
    assert machine.stats.get("vm.oom_stalls") > 0
    assert machine.stats.get("alloc.direct_reclaim") > 0
    assert machine.stats.get("oom.kills") == 0


def test_oom_killer_reports_node_occupancy():
    """When reclaim cannot free anything (swap full), the OOM error names
    the per-node occupancy instead of a bare MemoryError."""
    from repro.mm.system import OutOfMemoryError

    machine = Machine(
        SimulationConfig(dram_pages=(8,), pm_pages=(8,), swap_pages=4),
        "static",
    )
    process = machine.system.create_process()
    process.mmap_anon(0, 128)
    with pytest.raises(OutOfMemoryError) as excinfo:
        for vpage in range(128):
            machine.system.touch(process, vpage)
    message = str(excinfo.value)
    assert "node0/DRAM" in message
    assert "node1/PM" in message
    assert machine.stats.get("oom.kills") == 1
