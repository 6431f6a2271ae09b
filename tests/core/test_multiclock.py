"""Integration-level tests for the MULTI-CLOCK policy."""

import pytest

from repro.machine import Machine
from repro.mm.hardware import MemoryTier
from repro.run import run_workload
from repro.sim.config import DaemonConfig, SimulationConfig
from repro.workloads.synthetic import ShiftingHotSetWorkload, ZipfWorkload

FAST_DAEMONS = DaemonConfig(
    kpromoted_interval_s=0.002, kswapd_interval_s=0.002, hint_scan_interval_s=0.002
)


@pytest.fixture
def config():
    return SimulationConfig(dram_pages=(512,), pm_pages=(2048,), daemons=FAST_DAEMONS)


def test_daemons_registered_per_node(config):
    machine = Machine(config, "multiclock")
    names = {d.name for d in machine.scheduler.daemons}
    assert "kpromoted/0" in names
    assert "kpromoted/1" in names
    assert "kswapd/0" in names
    assert "kswapd/1" in names


def test_hot_pm_pages_get_promoted(config):
    """Unsupervised repeated access to PM pages ends with DRAM residency."""
    machine = Machine(config, "multiclock")
    process = machine.create_process()
    process.mmap_anon(0, 2048)
    # Fill well past DRAM capacity so plenty of pages live in PM.
    for vpage in range(1200):
        machine.touch(process, vpage)
    pm_resident = [
        vpage
        for vpage in range(1200)
        if machine.system.tier_of(machine.system.pagestore.pages[process.page_table.pfn(vpage)])
        is MemoryTier.PM
    ]
    hot = pm_resident[:32]
    assert len(hot) == 32, "fill phase must leave pages in PM"
    for __ in range(400):
        for vpage in hot:
            machine.touch(process, vpage, lines=8)
    dram_hot = sum(
        1
        for vpage in hot
        if machine.system.tier_of(machine.system.pagestore.pages[process.page_table.pfn(vpage)])
        is MemoryTier.DRAM
    )
    assert dram_hot >= len(hot) * 3 // 4
    assert machine.stats.get("migrate.promotions") >= dram_hot


def test_beats_static_on_shifting_hot_set(config):
    workload = lambda: ShiftingHotSetWorkload(  # noqa: E731 - test-local factory
        pages=1500, ops=120_000, phase_ops=30_000, hot_fraction=0.15, seed=3
    )
    static = run_workload(workload(), config, policy="static")
    multiclock = run_workload(workload(), config, policy="multiclock")
    assert multiclock.throughput_ops > static.throughput_ops


def test_promotes_fewer_pages_than_nimble(config):
    """Fig 8's shape: Nimble promotes more pages than MULTI-CLOCK."""
    workload = lambda: ZipfWorkload(pages=1500, ops=80_000, seed=5)  # noqa: E731
    nimble = run_workload(workload(), config, policy="nimble")
    multiclock = run_workload(workload(), config, policy="multiclock")
    assert multiclock.promotions < nimble.promotions


def test_direct_reclaim_prevents_oom():
    config = SimulationConfig(dram_pages=(32,), pm_pages=(64,), daemons=FAST_DAEMONS)
    machine = Machine(config, "multiclock")
    process = machine.create_process()
    process.mmap_anon(0, 256)
    # Touch twice the machine's capacity; reclaim must keep us alive.
    for vpage in range(200):
        machine.touch(process, vpage)
    assert machine.system.backing.swapped_pages > 0
    assert machine.stats.get("oom.kills") == 0


def test_mark_page_accessed_feeds_promote_list(config):
    machine = Machine(config, "multiclock")
    process = machine.create_process()
    process.mmap_anon(0, 8, supervised=True)
    for __ in range(5):
        machine.system.touch(process, 0)
    assert machine.stats.get("multiclock.promote_list_adds") >= 1


def test_windowed_promotion_series_recorded(config):
    machine = Machine(config, "multiclock")
    process = machine.create_process()
    process.mmap_anon(0, 2048)
    for vpage in range(700):
        machine.touch(process, vpage)
    for __ in range(300):
        for vpage in range(700, 720):
            machine.touch(process, vpage, lines=16)
    series = machine.stats.series["promotions_window"]
    assert sum(p.value for p in series.totals()) == machine.stats.get(
        "migrate.promotions"
    )
