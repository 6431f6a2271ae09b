"""Unit tests for the shared tier-movement helpers."""

import pytest

from repro.machine import Machine
from repro.mm.flags import PageFlags
from repro.mm.hardware import MemoryTier
from repro.mm.lruvec import ListKind
from repro.policies import movement
from repro.sim.config import SimulationConfig

SINGLE = SimulationConfig(dram_pages=(32,), pm_pages=(128,))
DUAL = SimulationConfig(dram_pages=(32, 32), pm_pages=(128, 128), sockets=2)


def make_pm_page(machine, node_index=None, home_socket=0, vpage=0):
    process = machine.create_process(home_socket=home_socket)
    process.mmap_anon(vpage, 8)
    node = (
        machine.system.pm_nodes()[node_index]
        if node_index is not None
        else machine.system.pm_nodes()[0]
    )
    page = node.allocate_page(is_anon=True)
    process.page_table.map(vpage, page)
    node.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
    return page


def test_roomiest_picks_most_free():
    machine = Machine(DUAL, "static")
    nodes = machine.system.dram_nodes()
    nodes[0].allocate_page(is_anon=True)
    assert movement.roomiest(nodes) is nodes[1]
    assert movement.roomiest([]) is None


def test_owner_socket_resolution():
    machine = Machine(DUAL, "static")
    page = make_pm_page(machine, home_socket=1)
    assert movement.owner_socket(machine.system, page) == 1
    orphan = machine.system.pm_nodes()[0].allocate_page(is_anon=True)
    assert movement.owner_socket(machine.system, orphan) is None


def test_promotion_prefers_local_socket():
    machine = Machine(DUAL, "static")
    page = make_pm_page(machine, node_index=1, home_socket=1)
    dest = movement.promotion_destination(machine.system, page)
    assert dest.socket == 1
    assert dest.tier is MemoryTier.DRAM


def test_promotion_holds_local_even_when_full():
    """A full local DRAM node is still the destination (demand demotion
    makes room there) rather than spilling hot pages cross-socket."""
    machine = Machine(DUAL, "static")
    local_dram = next(n for n in machine.system.dram_nodes() if n.socket == 1)
    while local_dram.can_allocate():
        filler = local_dram.allocate_page(is_anon=True)
        local_dram.lruvec.list_of(filler, ListKind.INACTIVE).add_head(filler)
    page = make_pm_page(machine, node_index=1, home_socket=1)
    dest = movement.promotion_destination(machine.system, page)
    assert dest is local_dram


def test_demotion_prefers_same_socket():
    machine = Machine(DUAL, "static")
    dram1 = next(n for n in machine.system.dram_nodes() if n.socket == 1)
    dest = movement.demotion_destination(machine.system, dram1)
    assert dest.socket == 1
    assert dest.tier is MemoryTier.PM


def test_demotion_at_bottom_tier_is_none():
    machine = Machine(SINGLE, "static")
    pm = machine.system.pm_nodes()[0]
    assert movement.demotion_destination(machine.system, pm) is None


def test_promote_page_refuses_dram_resident():
    machine = Machine(SINGLE, "static")
    process = machine.create_process()
    process.mmap_anon(0, 8)
    machine.touch(process, 0)
    page = machine.system.pagestore.pages[process.page_table.pfn(0)]
    assert machine.system.tier_of(page) is MemoryTier.DRAM
    assert not movement.promote_page(machine.system, page, make_room=None)


def test_promote_page_places_on_requested_list():
    machine = Machine(SINGLE, "static")
    page = make_pm_page(machine)
    assert movement.promote_page(
        machine.system, page, make_room=None, place=ListKind.INACTIVE
    )
    assert page.lru.kind is ListKind.INACTIVE
    assert not page.test(PageFlags.ACTIVE)


def test_conservative_promotion_fails_without_room():
    machine = Machine(SINGLE, "static")
    dram = machine.system.dram_nodes()[0]
    while dram.can_allocate():
        filler = dram.allocate_page(is_anon=True)
        dram.lruvec.list_of(filler, ListKind.INACTIVE).add_head(filler)
    page = make_pm_page(machine)
    assert not movement.promote_page(machine.system, page, make_room=None)
    assert movement.promote_page(
        machine.system, page,
        make_room=lambda dest: movement.demand_demote(machine.system, dest),
    )


def test_demand_demote_fails_when_pm_full():
    machine = Machine(SimulationConfig(dram_pages=(16,), pm_pages=(16,)), "static")
    for node in machine.system.nodes.values():
        while node.can_allocate():
            filler = node.allocate_page(is_anon=True)
            node.lruvec.list_of(filler, ListKind.INACTIVE).add_head(filler)
    dram = machine.system.dram_nodes()[0]
    assert not movement.demand_demote(machine.system, dram)


def test_demand_demote_skips_locked_pages():
    machine = Machine(SimulationConfig(dram_pages=(4,), pm_pages=(64,)), "static")
    dram = machine.system.dram_nodes()[0]
    pages = []
    while dram.can_allocate():
        page = dram.allocate_page(is_anon=True)
        page.set(PageFlags.LOCKED)
        dram.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
        pages.append(page)
    assert not movement.demand_demote(machine.system, dram)
    pages[0].clear(PageFlags.LOCKED)
    assert movement.demand_demote(machine.system, dram)
