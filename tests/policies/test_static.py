"""Unit tests for static tiering."""

import pytest

from repro.machine import Machine
from repro.mm.hardware import MemoryTier
from repro.sim.config import SimulationConfig


@pytest.fixture
def machine():
    return Machine(SimulationConfig(dram_pages=(64,), pm_pages=(256,)), "static")


def test_no_daemons(machine):
    assert machine.scheduler.daemons == []


def test_pages_born_in_dram_first(machine):
    process = machine.create_process()
    process.mmap_anon(0, 16)
    machine.touch(process, 0)
    page = machine.system.pagestore.pages[process.page_table.pfn(0)]
    assert machine.system.tier_of(page) is MemoryTier.DRAM


def test_overflow_lands_in_pm_and_stays(machine):
    process = machine.create_process()
    process.mmap_anon(0, 256)
    for vpage in range(200):
        machine.touch(process, vpage)
    pm_pages = [
        vpage
        for vpage in range(200)
        if machine.system.tier_of(machine.system.pagestore.pages[process.page_table.pfn(vpage)])
        is MemoryTier.PM
    ]
    assert pm_pages, "the fill must overflow into PM"
    # Hammer the PM pages; static tiering must never migrate them.
    for __ in range(50):
        for vpage in pm_pages[:10]:
            machine.touch(process, vpage)
    assert machine.stats.get("migrate.promotions") == 0
    assert machine.stats.get("migrate.demotions") == 0
    for vpage in pm_pages[:10]:
        page = machine.system.pagestore.pages[process.page_table.pfn(vpage)]
        assert machine.system.tier_of(page) is MemoryTier.PM


def test_static_never_migrates_under_pressure(machine):
    process = machine.create_process()
    process.mmap_anon(0, 512)
    for vpage in range(310):
        machine.touch(process, vpage)
    assert machine.stats.get("migrate.promotions") == 0
    assert machine.stats.get("migrate.demotions") == 0
