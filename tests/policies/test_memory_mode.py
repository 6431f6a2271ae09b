"""Unit tests for the Memory-mode (DRAM-as-cache) baseline."""

import pytest

from repro.machine import Machine
from repro.mm.hardware import MemoryTier
from repro.sim.config import LatencyConfig, SimulationConfig


@pytest.fixture
def machine():
    return Machine(SimulationConfig(dram_pages=(64,), pm_pages=(256,)), "memory-mode")


def test_all_allocations_land_in_pm(machine):
    process = machine.create_process()
    process.mmap_anon(0, 64)
    for vpage in range(32):
        machine.touch(process, vpage)
    for vpage in range(32):
        page = machine.system.pagestore.pages[process.page_table.pfn(vpage)]
        assert machine.system.tier_of(page) is MemoryTier.PM


def test_dram_capacity_hidden_from_os(machine):
    """Section II-B: the OS cannot use the DRAM tier's capacity."""
    assert machine.system.nodes[0].used_pages == 0
    process = machine.create_process()
    process.mmap_anon(0, 512)
    for vpage in range(100):
        machine.touch(process, vpage)
    assert machine.system.nodes[0].used_pages == 0
    assert machine.system.nodes[1].used_pages == 100


def test_first_access_misses_second_hits(machine):
    process = machine.create_process()
    process.mmap_anon(0, 8)
    machine.touch(process, 0)
    assert machine.stats.get("memcache.misses") == 1
    machine.touch(process, 0)
    assert machine.stats.get("memcache.hits") == 1


def test_hit_cheaper_than_miss_and_near_dram(machine):
    from repro.policies.memory_mode import HIT_OVERHEAD_NS, TAG_PROBE_NS

    latency = LatencyConfig()
    process = machine.create_process()
    process.mmap_anon(0, 8)
    machine.touch(process, 0)  # miss (plus fault)
    before = machine.clock.app_ns
    machine.touch(process, 0)  # hit
    hit_ns = machine.clock.app_ns - before
    # A 2LM hit costs DRAM plus the controller/tag overhead, and stays
    # far below a raw PM read.
    assert hit_ns == latency.dram_read_ns + HIT_OVERHEAD_NS + TAG_PROBE_NS
    assert hit_ns < latency.pm_read_ns


def test_pm_slowdown_window_raises_miss_cost(machine):
    """A PM slowdown reaches the near-memory cache: inside the window a
    miss reads PM at the scaled latency, while a hit stays on DRAM."""
    from repro.faults import FaultPlan, PmSlowdown

    latency = LatencyConfig()
    policy = machine.policy
    pm = machine.system.nodes[1]
    cached = pm.allocate_page(is_anon=True)
    cold = pm.allocate_page(is_anon=True)  # the next cache slot
    miss_ns = policy.charge_access(cached, is_write=False)
    hit_ns = policy.charge_access(cached, is_write=False)
    machine.install_faults(FaultPlan(seed=1, events=(
        PmSlowdown(start_s=0.001, end_s=0.010, multiplier=3.0),
    )))
    machine.clock.advance_app(2_000_000)
    machine.drain_daemons()
    assert policy.charge_access(cold, is_write=False) == miss_ns + 2 * latency.pm_read_ns
    assert policy.charge_access(cached, is_write=False) == hit_ns


def test_direct_mapped_conflicts_evict(machine):
    slots = machine.policy.cache_slots
    process = machine.create_process()
    process.mmap_anon(0, 4 * slots)
    # Two pages whose pfns collide in the direct map must exist among
    # slots+1 consecutively allocated pages (pigeonhole).
    for vpage in range(slots + 1):
        machine.touch(process, vpage)
    pfns = [process.page_table.pfn(v) for v in range(slots + 1)]
    by_slot = {}
    conflict = None
    for vpage, pfn in enumerate(pfns):
        slot = pfn % slots
        if slot in by_slot:
            conflict = (by_slot[slot], vpage)
            break
        by_slot[slot] = vpage
    assert conflict is not None
    first, second = conflict
    machine.touch(process, first)
    machine.touch(process, second)  # evicts first
    misses = machine.stats.get("memcache.misses")
    machine.touch(process, first)  # conflict miss
    assert machine.stats.get("memcache.misses") == misses + 1


def test_dirty_eviction_writes_back(machine):
    slots = machine.policy.cache_slots
    process = machine.create_process()
    process.mmap_anon(0, 4 * slots)
    for vpage in range(slots + 1):
        machine.touch(process, vpage, is_write=True)
    assert machine.stats.get("memcache.writebacks") >= 1


def test_no_page_migrations_ever(machine):
    process = machine.create_process()
    process.mmap_anon(0, 512)
    for round_ in range(3):
        for vpage in range(150):
            machine.touch(process, vpage)
    assert machine.stats.get("migrate.promotions") == 0
    assert machine.stats.get("migrate.demotions") == 0


def test_hit_rate_reporting(machine):
    process = machine.create_process()
    process.mmap_anon(0, 8)
    assert machine.policy.hit_rate() == 0.0
    machine.touch(process, 0)
    machine.touch(process, 0)
    machine.touch(process, 0)
    assert machine.policy.hit_rate() == pytest.approx(2 / 3)
