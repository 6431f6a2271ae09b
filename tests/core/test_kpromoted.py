"""Unit tests for the kpromoted daemon."""

import pytest

from repro.core.state import move_to_promote
from repro.machine import Machine
from repro.mm.flags import PageFlags
from repro.mm.hardware import MemoryTier
from repro.mm.lruvec import ListKind
from repro.sim.config import DaemonConfig, SimulationConfig


@pytest.fixture
def machine():
    return Machine(SimulationConfig(dram_pages=(64,), pm_pages=(256,)), "multiclock")


def pm_resident(machine, process, vpage, *, kind=ListKind.INACTIVE):
    node = machine.system.nodes[1]
    page = node.allocate_page(is_anon=True)
    process.page_table.map(vpage, page)
    node.lruvec.list_of(page, kind).add_head(page)
    if kind is ListKind.ACTIVE:
        page.set(PageFlags.ACTIVE)
    return page


def pm_kpromoted(machine):
    return next(k for k in machine.policy._kpromoted if k.node.is_pm)


def test_unaccessed_pm_page_never_promoted(machine):
    process = machine.create_process()
    process.mmap_anon(0, 8)
    page = pm_resident(machine, process, 0)
    for __round in range(5):
        pm_kpromoted(machine).run(0)
    assert machine.system.tier_of(page) is MemoryTier.PM
    assert machine.stats.get("migrate.promotions") == 0


def test_single_access_per_scan_is_not_enough(machine):
    """One reference per scan round climbs the ladder slowly and never
    reaches the promote list with fewer than three scans — the frequency
    filter that separates MULTI-CLOCK from Nimble."""
    process = machine.create_process()
    process.mmap_anon(0, 8)
    page = pm_resident(machine, process, 0)
    kp = pm_kpromoted(machine)
    machine.system.pagestore.pte_accessed[page.pfn] = True
    kp.run(0)  # inactive unref -> inactive ref
    assert page.lru.kind is ListKind.INACTIVE
    machine.system.pagestore.pte_accessed[page.pfn] = True
    kp.run(0)  # inactive ref -> active
    assert page.lru.kind is ListKind.ACTIVE
    assert machine.system.tier_of(page) is MemoryTier.PM


def test_persistent_access_promotes_within_four_scans(machine):
    process = machine.create_process()
    process.mmap_anon(0, 8)
    page = pm_resident(machine, process, 0)
    kp = pm_kpromoted(machine)
    rounds = 0
    while machine.system.tier_of(page) is MemoryTier.PM and rounds < 6:
        machine.system.pagestore.pte_accessed[page.pfn] = True
        kp.run(0)
        rounds += 1
    assert machine.system.tier_of(page) is MemoryTier.DRAM
    assert rounds <= 4


def test_promoted_page_lands_on_dram_active_list(machine):
    process = machine.create_process()
    process.mmap_anon(0, 8)
    page = pm_resident(machine, process, 0, kind=ListKind.ACTIVE)
    page.set(PageFlags.REFERENCED)
    machine.system.pagestore.pte_accessed[page.pfn] = True
    pm_kpromoted(machine).run(0)  # active ref + bit -> promote list, then drain
    assert machine.system.tier_of(page) is MemoryTier.DRAM
    assert page.lru.kind is ListKind.ACTIVE
    assert not page.test(PageFlags.PROMOTE)


def test_selected_pages_promoted_in_same_run(machine):
    """Section III-B: "once a page is selected for promotion, the page
    gets promoted to the DRAM in the same kpromoted run"."""
    process = machine.create_process()
    process.mmap_anon(0, 8)
    page = pm_resident(machine, process, 0, kind=ListKind.ACTIVE)
    page.set(PageFlags.REFERENCED)
    machine.system.pagestore.pte_accessed[page.pfn] = True
    promotions_before = machine.stats.get("migrate.promotions")
    pm_kpromoted(machine).run(0)
    assert machine.stats.get("migrate.promotions") == promotions_before + 1


def test_promotions_counted_in_stats(machine):
    """A successful drain shows up in kpromoted.promoted, not a no-op."""
    process = machine.create_process()
    process.mmap_anon(0, 8)
    page = pm_resident(machine, process, 0, kind=ListKind.ACTIVE)
    page.set(PageFlags.REFERENCED)
    machine.system.pagestore.pte_accessed[page.pfn] = True
    pm_kpromoted(machine).run(0)
    assert machine.system.tier_of(page) is MemoryTier.DRAM
    assert machine.stats.get("kpromoted.promoted") == 1
    # The engine-side counter agrees with the daemon-side one.
    assert machine.stats.get("migrate.promotions") == 1


def test_failed_promotion_not_counted(machine):
    """A locked page recycles to active and is not counted as promoted."""
    process = machine.create_process()
    process.mmap_anon(0, 8)
    page = pm_resident(machine, process, 0, kind=ListKind.ACTIVE)
    page.set(PageFlags.REFERENCED)
    page.set(PageFlags.LOCKED)
    machine.system.pagestore.pte_accessed[page.pfn] = True
    pm_kpromoted(machine).run(0)
    assert machine.system.tier_of(page) is MemoryTier.PM
    assert machine.stats.get("kpromoted.promoted") == 0


def test_scan_budget_limits_work(machine):
    cfg = SimulationConfig(
        dram_pages=(64,),
        pm_pages=(256,),
        daemons=DaemonConfig(scan_budget_pages=4),
    )
    machine = Machine(cfg, "multiclock")
    process = machine.create_process()
    process.mmap_anon(0, 64)
    for vpage in range(32):
        pm_resident(machine, process, vpage)
    pm_kpromoted(machine).run(0)
    # Budget of 4 per list x (inactive+active+promote) x (anon+file) max.
    assert machine.stats.get("kpromoted.pages_scanned") <= 4 * 6


def test_dram_promote_list_recycles_to_active(machine):
    dram = machine.system.nodes[0]
    process = machine.create_process()
    process.mmap_anon(0, 8)
    machine.system.touch(process, 0)
    page = machine.system.pagestore.pages[process.page_table.pfn(0)]
    page.lru.remove(page)
    page.set(PageFlags.ACTIVE)
    dram.lruvec.list_of(page, ListKind.ACTIVE).add_head(page)
    move_to_promote(dram, page)
    dram_kp = next(k for k in machine.policy._kpromoted if not k.node.is_pm)
    dram_kp.run(0)
    assert page.lru.kind is ListKind.ACTIVE
    assert machine.system.tier_of(page) is MemoryTier.DRAM


def test_run_returns_system_work(machine):
    process = machine.create_process()
    process.mmap_anon(0, 16)
    for vpage in range(8):
        pm_resident(machine, process, vpage)
    work = pm_kpromoted(machine).run(0)
    assert work > 0


def test_promotion_into_full_dram_demand_demotes(machine):
    """Section III-C: promotions into a pressured DRAM tier trigger
    immediate demotions."""
    process = machine.create_process()
    process.mmap_anon(0, 512)
    # Fill DRAM completely via direct node allocation.
    dram = machine.system.nodes[0]
    filler = machine.create_process()
    filler.mmap_anon(0, 128)
    vpage = 0
    while dram.can_allocate():
        page = dram.allocate_page(is_anon=True)
        filler.page_table.map(vpage, page)
        dram.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
        vpage += 1
    page = pm_resident(machine, process, 0, kind=ListKind.ACTIVE)
    page.set(PageFlags.REFERENCED)
    machine.system.pagestore.pte_accessed[page.pfn] = True
    pm_kpromoted(machine).run(0)
    assert machine.system.tier_of(page) is MemoryTier.DRAM
    assert machine.stats.get("migrate.demotions") >= 1


def test_failed_drain_counts_deactivation(machine):
    """A promote-list page that cannot migrate is recycled to the active
    list and shows up in kpromoted.deactivated."""
    process = machine.create_process()
    process.mmap_anon(0, 8)
    page = pm_resident(machine, process, 0, kind=ListKind.ACTIVE)
    page.set(PageFlags.REFERENCED)
    page.set(PageFlags.LOCKED)
    machine.system.pagestore.pte_accessed[page.pfn] = True
    pm_kpromoted(machine).run(0)
    assert machine.system.tier_of(page) is MemoryTier.PM
    assert machine.stats.get("kpromoted.deactivated") >= 1
    assert machine.stats.get("kpromoted.promoted") == 0


def test_drain_consumes_both_reference_signals(machine):
    """The stale-REFERENCED fix: draining a promote-list page with a set
    hardware accessed bit must also clear REFERENCED, so the page lands
    upstairs without a free second reference already banked."""
    process = machine.create_process()
    process.mmap_anon(0, 8)
    page = pm_resident(machine, process, 0, kind=ListKind.ACTIVE)
    node = machine.system.nodes[1]
    move_to_promote(node, page)  # sets REFERENCED by design (edge 10)
    assert page.test(PageFlags.REFERENCED)
    # The hardware bit the old short-circuit hid behind.
    machine.system.pagestore.pte_accessed[page.pfn] = True
    pm_kpromoted(machine).run(0)
    assert machine.system.tier_of(page) is MemoryTier.DRAM
    assert not page.test(PageFlags.REFERENCED), (
        "drain left a stale second reference on the promoted page"
    )


def test_drain_promotes_on_referenced_flag_alone(machine):
    """Clearing both signals must not break the flag-only path: a page
    whose second reference came from REFERENCED (no fresh hardware bit)
    still climbs."""
    process = machine.create_process()
    process.mmap_anon(0, 8)
    page = pm_resident(machine, process, 0, kind=ListKind.ACTIVE)
    node = machine.system.nodes[1]
    move_to_promote(node, page)
    pm_kpromoted(machine).run(0)
    assert machine.system.tier_of(page) is MemoryTier.DRAM
    assert not page.test(PageFlags.REFERENCED)
