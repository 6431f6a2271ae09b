"""Blocks that carry their ``v2p`` slots, and events with one lookup.

A vpage's slot depends only on the region layout, and regions are only
appended, so a producer that resolved its positions once may hand the
driver the slots with the region count they were read at.  The driver
then gathers translations from them and never calls
``PageTable.resolve``; it resolves a block again only when the count
has moved, and after an unmap or a poisoning mid-block it re-gathers
the rest from the same slots.

An event (a page fault, or a hint fault that may move a page) reaches
``MemorySystem.touch``, where one bisect over the region starts finds
the vpage's slot and, on a page fault, its region:
``Process.region_for`` never runs.  A hint fault that moves no page is
charged by the driver and takes no bisect.  Only a vpage
inside a region can be mapped, and touching one outside every region
fails with ``LookupError``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.common import scaled_config
from repro.machine import AccessBlock, Machine
from repro.mm import system as mm_system
from repro.mm.address_space import Process
from repro.mm.page_table import PageTable
from repro.mm.system import MemorySystem
from repro.run import run_workload
from repro.sim.config import SimulationConfig
from repro.sim.events import Daemon
from repro.workloads.ycsb import YCSBSession


class Counted:
    """Counts calls of a method over a ``with`` body."""

    def __init__(self, owner, name: str) -> None:
        self.owner, self.name, self.calls = owner, name, 0

    def __enter__(self) -> "Counted":
        original = self.original = vars(self.owner)[self.name]

        def counting(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        setattr(self.owner, self.name, counting)
        return self

    def __exit__(self, *exc) -> None:
        setattr(self.owner, self.name, self.original)


def _machine(policy: str = "static"):
    machine = Machine(SimulationConfig(dram_pages=(64,), pm_pages=(512,)), policy)
    process = machine.create_process("p")
    process.mmap_anon(0, 200)
    return machine, process


def _block(process: Process, vpages, *, carried: bool = True) -> AccessBlock:
    vpage = np.asarray(vpages, dtype=np.int64)
    n = len(vpage)
    table = process.page_table
    return AccessBlock(
        process, vpage, np.zeros(n, dtype=bool), np.ones(n, dtype=np.int64),
        np.ones(n, dtype=bool),
        slots=table.resolve(vpage) if carried else None, regions=table.n_regions,
    )


def _state(machine: Machine) -> tuple:
    clock = machine.clock
    return machine.stats.snapshot(), clock.now_ns, clock.app_ns, clock.system_ns


def test_a_block_carrying_slots_is_never_resolved():
    machine, process = _machine()
    vpages = list(range(100)) * 3
    block = _block(process, vpages)
    with Counted(PageTable, "resolve") as resolve:
        assert machine.touch_batch([block]) == (300, 300)
    assert resolve.calls == 0
    twin, twin_process = _machine()
    twin.touch_batch([_block(twin_process, vpages, carried=False)])
    assert _state(machine) == _state(twin)


def test_slots_that_predate_an_mmap_are_resolved_again():
    machine, process = _machine()
    # 300 lies outside every region when the slots are read: the sentinel.
    block = _block(process, [5, 300, 6, 301])
    assert block.slots[1] == -1
    process.mmap_anon(300, 10)
    with Counted(PageTable, "resolve") as resolve:
        machine.touch_batch([block])
    assert resolve.calls == 1
    assert 300 in process.page_table and 301 in process.page_table


def _churned(change: str):
    """Pages 0..49 mapped, and a daemon that unmaps or poisons them all
    every microsecond of virtual time."""
    machine, process = _machine()
    machine.touch_batch([_block(process, range(50))])
    table = process.page_table

    def fire(now: int) -> int:
        if change == "unmap":
            machine.system.discard_region(process, process.regions[0])
        else:
            for vpage in range(50):
                table.poison(vpage)
        return 0

    machine.scheduler.register(Daemon("churn", 0.000001, fire))
    return machine, process


@pytest.mark.parametrize("change", ["unmap", "poison"])
def test_an_unmap_or_poisoning_mid_block_regathers_without_resolving(change):
    vpages = list(range(50)) * 40
    machine, process = _churned(change)
    table = process.page_table
    gens = table._unmap_gen, table._poison_gen
    block = _block(process, vpages)
    with Counted(PageTable, "resolve") as resolve:
        machine.touch_batch([block])
    assert (table._unmap_gen, table._poison_gen) != gens, "the daemon changed nothing"
    assert resolve.calls == 0
    # The reference: one Machine.touch per access, on a twin machine.
    twin, twin_process = _churned(change)
    for vpage in vpages:
        twin.touch(twin_process, vpage)
    assert _state(machine) == _state(twin)
    counter = "faults.minor" if change == "unmap" else "faults.hint"
    assert machine.stats.snapshot()[counter] > 50


def test_a_vpage_outside_every_region_is_neither_mapped_nor_touched():
    machine, process = _machine()
    page = machine.system._allocate_page(process.regions[0], 0, process)
    with pytest.raises(ValueError):
        process.page_table.map(5000, page)
    assert not page.mapped
    with pytest.raises(LookupError):
        machine.touch(process, 5000)


@pytest.mark.parametrize("policy", ["autotiering-cpm", "autotiering-opm"])
def test_an_event_makes_one_region_bisect(policy):
    """A fig5-style run: YCSB load and phase A on a hint-faulting policy.

    The events are the page faults and the hint faults handed to the
    policy's ``on_hint_fault``; the quiet hint faults, which move no
    page, are charged by the driver.
    """
    session = YCSBSession(400, value_size=1024, seed=42)
    config = scaled_config(dram_pages=48, pm_pages=1024, scan_budget_pages=32)
    machine = Machine(config, policy)
    handler = machine.policy.on_hint_fault
    loud = [0]

    def counted(page):
        loud[0] += 1
        return handler(page)

    machine.policy.on_hint_fault = counted
    with Counted(Process, "region_for") as region_for, \
            Counted(mm_system, "bisect_right") as bisects, \
            Counted(MemorySystem, "touch") as touches:
        run_workload(session.load_phase(), config, machine=machine)
        run_workload(session.phase("A", ops=2000), config, machine=machine)
    counters = machine.stats.snapshot()
    assert 0 < loud[0] < counters["faults.hint"], "no quiet hint fault"
    assert touches.calls == counters["faults.minor"] + counters["faults.major"] + loud[0]
    assert bisects.calls == touches.calls
    assert region_for.calls == 0
