"""Unit tests for the hint-fault family: AT-CPM, AT-OPM, AutoNUMA."""

import pytest

from repro.machine import Machine
from repro.mm.flags import PageFlags
from repro.mm.hardware import MemoryTier
from repro.mm.lruvec import ListKind
from repro.mm.page_table import UNMAPPED
from repro.policies import movement
from repro.policies.autotiering import HISTORY_BITS, HintFaultScanner
from repro.sim.config import DaemonConfig, SimulationConfig

FAST = DaemonConfig(
    kpromoted_interval_s=0.001, kswapd_interval_s=0.001, hint_scan_interval_s=0.001
)


def make_machine(policy, dram=64, pm=256):
    return Machine(
        SimulationConfig(dram_pages=(dram,), pm_pages=(pm,), daemons=FAST), policy
    )


def resident(machine, process, vpage):
    machine.system.touch(process, vpage)
    return machine.system.pagestore.pages[process.page_table.pfn(vpage)]


def poisoned(process, vpage):
    table = process.page_table
    return table.v2p.item(table._slot(vpage)) < UNMAPPED


def test_scanner_poisons_resident_ptes():
    machine = make_machine("autotiering-cpm")
    process = machine.create_process()
    process.mmap_anon(0, 16)
    for vpage in range(8):
        resident(machine, process, vpage)
    machine.policy._scanner.run(0)
    assert all(poisoned(process, vpage) for vpage in range(8))
    assert machine.stats.get("hint.poisoned") == 8


def test_scanner_budget_respected():
    config = SimulationConfig(
        dram_pages=(256,),
        pm_pages=(256,),
        daemons=DaemonConfig(hint_scan_budget_pages=4),
    )
    machine = Machine(config, "autotiering-cpm")
    process = machine.create_process()
    process.mmap_anon(0, 32)
    for vpage in range(16):
        resident(machine, process, vpage)
    machine.policy._scanner.run(0)
    assert machine.stats.get("hint.poisoned") == 4


def test_scanner_cursor_covers_all_pages_across_runs():
    config = SimulationConfig(
        dram_pages=(256,),
        pm_pages=(256,),
        daemons=DaemonConfig(hint_scan_budget_pages=4),
    )
    machine = Machine(config, "autotiering-cpm")
    process = machine.create_process()
    process.mmap_anon(0, 32)
    for vpage in range(12):
        resident(machine, process, vpage)
    for __ in range(3):
        machine.policy._scanner.run(0)
    assert all(poisoned(process, vpage) for vpage in range(12))


def test_hint_fault_charges_latency():
    machine = make_machine("autotiering-cpm")
    process = machine.create_process()
    process.mmap_anon(0, 8)
    resident(machine, process, 0)
    machine.policy._scanner.run(0)
    before = machine.clock.app_ns
    machine.system.touch(process, 0)
    assert machine.clock.app_ns - before > machine.system.hardware.hint_fault_ns()
    assert machine.stats.get("faults.hint") == 1


def test_cpm_promotes_only_into_free_dram():
    machine = make_machine("autotiering-cpm", dram=64, pm=256)
    process = machine.create_process()
    process.mmap_anon(0, 512)
    # Leave DRAM with room: a PM page fault promotes.
    node = machine.system.nodes[1]
    page = node.allocate_page(is_anon=True)
    process.page_table.map(400, page)
    node.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
    process.page_table.poison(400)
    machine.system.touch(process, 400)
    assert machine.system.tier_of(page) is MemoryTier.DRAM


def test_cpm_conservative_when_dram_full():
    machine = make_machine("autotiering-cpm", dram=16, pm=256)
    process = machine.create_process()
    process.mmap_anon(0, 512)
    dram = machine.system.nodes[0]
    vpage = 0
    while dram.can_allocate():
        page = dram.allocate_page(is_anon=True)
        process.page_table.map(vpage, page)
        dram.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
        vpage += 1
    node = machine.system.nodes[1]
    page = node.allocate_page(is_anon=True)
    process.page_table.map(400, page)
    node.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
    process.page_table.poison(400)
    machine.system.touch(process, 400)
    assert machine.system.tier_of(page) is MemoryTier.PM
    assert machine.stats.get("migrate.demotions") == 0


def test_opm_makes_room_by_demoting_cold_pages():
    machine = make_machine("autotiering-opm", dram=16, pm=256)
    process = machine.create_process()
    process.mmap_anon(0, 512)
    dram = machine.system.nodes[0]
    vpage = 0
    while dram.can_allocate():
        page = dram.allocate_page(is_anon=True)
        machine.system.pagestore.hint_history[page.pfn] = 0  # all-cold history
        process.page_table.map(vpage, page)
        dram.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
        vpage += 1
    node = machine.system.nodes[1]
    page = node.allocate_page(is_anon=True)
    process.page_table.map(400, page)
    node.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
    process.page_table.poison(400)
    machine.system.touch(process, 400)
    assert machine.system.tier_of(page) is MemoryTier.DRAM
    assert machine.stats.get("opm.cold_demotions") >= 1


def test_opm_spares_warm_history_pages():
    machine = make_machine("autotiering-opm", dram=16, pm=256)
    process = machine.create_process()
    process.mmap_anon(0, 512)
    dram = machine.system.nodes[0]
    vpage = 0
    while dram.can_allocate():
        page = dram.allocate_page(is_anon=True)
        machine.system.pagestore.hint_history[page.pfn] = 0b0101  # warm history
        process.page_table.map(vpage, page)
        dram.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
        vpage += 1
    node = machine.system.nodes[1]
    page = node.allocate_page(is_anon=True)
    process.page_table.map(400, page)
    node.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
    process.page_table.poison(400)
    machine.system.touch(process, 400)
    assert machine.system.tier_of(page) is MemoryTier.PM
    assert machine.stats.get("opm.cold_demotions") == 0


def test_opm_history_shift_and_set():
    machine = make_machine("autotiering-opm")
    process = machine.create_process()
    process.mmap_anon(0, 8)
    page = resident(machine, process, 0)
    history = machine.system.pagestore.hint_history
    table = process.page_table
    scanner: HintFaultScanner = machine.policy._scanner
    scanner.run(0)  # shift + poison
    machine.system.touch(process, 0)  # fault sets LSB
    assert history[page.pfn] & 1 == 1
    # Idle scans age the history toward zero.
    for __ in range(HISTORY_BITS):
        scanner.run(0)
        table.v2p[table._slot(0)] = page.pfn  # never re-touched
    assert history[page.pfn] == 0


def test_autonuma_is_cpm_like_without_history():
    machine = make_machine("autonuma")
    assert machine.policy.track_history is False
    assert machine.policy.make_room is None
    names = {d.name for d in machine.scheduler.daemons}
    assert names == {"hint-scanner"}


def fill_dram(machine, process, *, leave_free=0, history=0):
    """Map DRAM pages with ``history`` until ``leave_free`` frames remain."""
    dram = machine.system.nodes[0]
    vpage = 0
    while dram.free > leave_free:
        page = dram.allocate_page(is_anon=True)
        machine.system.pagestore.hint_history[page.pfn] = history
        process.page_table.map(vpage, page)
        dram.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
        vpage += 1
    return dram


def poisoned_pm_page(machine, process, vpage=400):
    node = machine.system.nodes[1]
    page = node.allocate_page(is_anon=True)
    process.page_table.map(vpage, page)
    node.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
    process.page_table.poison(vpage)
    return page


def test_opm_locked_page_with_dram_room_demotes_nothing():
    """Room is made only when the destination is full: a PM page that
    cannot migrate must not cost a cold DRAM page its frame."""
    machine = make_machine("autotiering-opm", dram=16, pm=256)
    process = machine.create_process()
    process.mmap_anon(0, 512)
    dram = fill_dram(machine, process, leave_free=3)
    page = poisoned_pm_page(machine, process)
    page.set(PageFlags.LOCKED)
    machine.system.touch(process, 400)
    assert machine.system.tier_of(page) is MemoryTier.PM
    assert machine.stats.get("opm.cold_demotions") == 0
    assert machine.stats.get("migrate.demotions") == 0
    assert machine.stats.get("hint.promotions") == 0
    assert dram.free == 3


@pytest.mark.parametrize("policy", ["autotiering-cpm", "autotiering-opm"])
@pytest.mark.parametrize("leave_free, history", [(3, 0), (0, 0), (0, 0b0101)])
def test_one_promotion_destination_per_hint_fault_promotion(
    monkeypatch, policy, leave_free, history
):
    """Each PM hint-fault promotion attempt works out its destination
    once: with DRAM room, with DRAM full and cold pages to demote (OPM
    makes room), and with DRAM full of warm pages."""
    machine = make_machine(policy, dram=16, pm=256)
    process = machine.create_process()
    process.mmap_anon(0, 512)
    fill_dram(machine, process, leave_free=leave_free, history=history)
    page = poisoned_pm_page(machine, process)
    calls = []
    destination = movement.promotion_destination

    def counted(system, page=None):
        calls.append(page.pfn)
        return destination(system, page)

    monkeypatch.setattr(movement, "promotion_destination", counted)
    machine.system.touch(process, 400)
    assert calls == [page.pfn]
    promoted = leave_free > 0 or (policy == "autotiering-opm" and history == 0)
    assert machine.stats.get("hint.promotions") == int(promoted)
