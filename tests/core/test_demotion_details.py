"""Detailed tests of the Section III-C demotion pipeline's ordering."""

import pytest

from repro.machine import Machine
from repro.mm.flags import PageFlags
from repro.mm.lruvec import ListKind
from repro.sim.config import SimulationConfig


@pytest.fixture
def machine():
    return Machine(SimulationConfig(dram_pages=(64,), pm_pages=(512,)), "multiclock")


def test_balance_stops_at_high_watermark(machine):
    """Reclaim overshoot is bounded: kswapd frees to ``high`` and stops."""
    process = machine.create_process()
    process.mmap_anon(0, 128)
    dram = machine.system.nodes[0]
    vpage = 0
    while dram.can_allocate():
        page = dram.allocate_page(is_anon=True)
        process.page_table.map(vpage, page)
        dram.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
        vpage += 1
    daemon = next(d for d in machine.policy._kswapd if not d.node.is_pm)
    daemon.balance()
    assert dram.free_pages >= dram.watermarks.high_pages
    # Not the whole tier: the overwhelming majority of pages remain.
    assert dram.used_pages > dram.capacity_pages // 2


def test_demotion_prefers_inactive_over_active(machine):
    """Active pages are only deactivated, never demoted directly; the
    inactive tail supplies the demotion victims."""
    process = machine.create_process()
    process.mmap_anon(0, 128)
    dram = machine.system.nodes[0]
    vpage = 0
    active_pages = []
    while dram.can_allocate():
        page = dram.allocate_page(is_anon=True)
        process.page_table.map(vpage, page)
        if vpage % 2 == 0:
            page.set(PageFlags.ACTIVE)
            dram.lruvec.list_of(page, ListKind.ACTIVE).add_head(page)
            active_pages.append(page)
        else:
            dram.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
        vpage += 1
    # Keep active pages genuinely hot so rebalancing spares them.
    for page in active_pages:
        machine.system.pagestore.pte_accessed[page.pfn] = True
    daemon = next(d for d in machine.policy._kswapd if not d.node.is_pm)
    daemon.balance()
    demoted_active = sum(
        1 for page in active_pages if machine.system.nodes[page.node_id].is_pm
    )
    assert demoted_active == 0


def test_kswapd_daemon_is_idle_without_pressure(machine):
    daemon = next(d for d in machine.policy._kswapd if not d.node.is_pm)
    assert daemon.run(0) == 0
    assert machine.stats.get("migrate.demotions") == 0
