"""Unit tests for the Nimble page-selection baseline."""

import pytest

from repro.machine import Machine
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
        "nimble",
    )


def pm_resident(machine, process, vpage):
    node = machine.system.nodes[1]
    page = node.allocate_page(is_anon=True)
    process.page_table.map(vpage, page)
    node.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
    return page


def run_promoter(machine):
    daemon = machine.scheduler.get("nimble-promote/1")
    return daemon.body(machine.clock.now_ns)


def test_daemons_promoter_on_pm_nodes_only(machine):
    names = {d.name for d in machine.scheduler.daemons}
    assert "nimble-promote/1" in names
    assert "nimble-promote/0" not in names
    assert "kswapd/0" in names  # recency demotion daemon


def test_single_reference_is_enough_to_promote(machine):
    """The crucial difference from MULTI-CLOCK: recency only, so one
    recent reference earns promotion on the next scan."""
    process = machine.create_process()
    process.mmap_anon(0, 8)
    page = pm_resident(machine, process, 0)
    machine.system.pagestore.pte_accessed[page.pfn] = True
    run_promoter(machine)
    assert machine.system.tier_of(page) is MemoryTier.DRAM
    assert machine.stats.get("nimble.promotions") == 1


def test_untouched_page_not_promoted(machine):
    process = machine.create_process()
    process.mmap_anon(0, 8)
    page = pm_resident(machine, process, 0)
    run_promoter(machine)
    assert machine.system.tier_of(page) is MemoryTier.PM


def test_promotes_more_aggressively_than_multiclock():
    """Every PM page referenced once gets promoted by Nimble; MULTI-CLOCK
    requires the recency+frequency ladder, so it promotes none of them in
    a single scan round."""
    def build(policy):
        machine = Machine(
            SimulationConfig(dram_pages=(256,), pm_pages=(256,)), policy
        )
        process = machine.create_process()
        process.mmap_anon(0, 64)
        pages = []
        node = machine.system.nodes[1]
        for vpage in range(32):
            page = node.allocate_page(is_anon=True)
            process.page_table.map(vpage, page)
            node.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
            machine.system.pagestore.pte_accessed[page.pfn] = True
            pages.append(page)
        return machine

    nimble = build("nimble")
    nimble.scheduler.get("nimble-promote/1").body(0)
    multiclock = build("multiclock")
    multiclock.policy._kpromoted[1].run(0)
    assert nimble.stats.get("migrate.promotions") == 32
    assert multiclock.stats.get("migrate.promotions") == 0


def test_promotion_into_full_dram_makes_room(machine):
    dram = machine.system.nodes[0]
    filler = machine.create_process()
    filler.mmap_anon(0, 128)
    vpage = 0
    while dram.can_allocate():
        page = dram.allocate_page(is_anon=True)
        filler.page_table.map(vpage, page)
        dram.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
        vpage += 1
    process = machine.create_process()
    process.mmap_anon(0, 8)
    page = pm_resident(machine, process, 0)
    machine.system.pagestore.pte_accessed[page.pfn] = True
    run_promoter(machine)
    assert machine.system.tier_of(page) is MemoryTier.DRAM
    assert machine.stats.get("migrate.demotions") >= 1


def test_scan_budget_respected(machine):
    config = SimulationConfig(
        dram_pages=(512,),
        pm_pages=(512,),
        daemons=DaemonConfig(scan_budget_pages=8),
    )
    machine = Machine(config, "nimble")
    process = machine.create_process()
    process.mmap_anon(0, 128)
    node = machine.system.nodes[1]
    for vpage in range(64):
        page = node.allocate_page(is_anon=True)
        process.page_table.map(vpage, page)
        node.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
        machine.system.pagestore.pte_accessed[page.pfn] = True
    machine.scheduler.get("nimble-promote/1").body(0)
    assert machine.stats.get("migrate.promotions") <= 8
