"""Unit tests for multi-socket NUMA topology."""

import pytest

from repro.machine import Machine
from repro.mm.hardware import MemoryTier
from repro.mm.lruvec import ListKind
from repro.sim.config import LatencyConfig, SimulationConfig

DUAL = SimulationConfig(
    dram_pages=(64, 64),
    pm_pages=(256, 256),
    sockets=2,
)


def test_nodes_assigned_round_robin():
    machine = Machine(DUAL, "static")
    sockets = {nid: node.socket for nid, node in machine.system.nodes.items()}
    assert sockets == {0: 0, 1: 1, 2: 0, 3: 1}


def test_socket_count_validation():
    with pytest.raises(ValueError):
        SimulationConfig(sockets=0).validated()
    with pytest.raises(ValueError):
        SimulationConfig(
            latency=LatencyConfig(remote_socket_multiplier=0.5)
        ).validated()


def test_home_socket_validation():
    machine = Machine(DUAL, "static")
    with pytest.raises(ValueError):
        machine.create_process(home_socket=5)


def test_first_touch_prefers_local_socket():
    machine = Machine(DUAL, "static")
    p0 = machine.create_process(home_socket=0)
    p1 = machine.create_process(home_socket=1)
    p0.mmap_anon(0, 8)
    p1.mmap_anon(0, 8)
    machine.touch(p0, 0)
    machine.touch(p1, 0)
    node_of = lambda proc: machine.system.nodes[  # noqa: E731
        machine.system.pagestore.pages[proc.page_table.pfn(0)].node_id
    ]
    assert node_of(p0).socket == 0
    assert node_of(p1).socket == 1
    assert node_of(p0).tier is MemoryTier.DRAM
    assert node_of(p1).tier is MemoryTier.DRAM


def test_local_fallback_crosses_to_pm_before_remote_dram_is_not_assumed():
    """Fallback order is tier-major: remote DRAM still beats local PM
    (DRAM tier = all DRAM nodes, Section IV)."""
    machine = Machine(DUAL, "static")
    p0 = machine.create_process(home_socket=0)
    p0.mmap_anon(0, 512)
    node_column = machine.system.pagestore.node
    tiers = []
    for vpage in range(130):  # beyond one socket's DRAM (64)
        machine.touch(p0, vpage)
        node = machine.system.nodes[node_column.item(p0.page_table.pfn(vpage))]
        tiers.append(node.tier)
    assert tiers.count(MemoryTier.DRAM) > 64  # spilled into remote DRAM


def test_remote_access_pays_multiplier():
    machine = Machine(DUAL, "static")
    p0 = machine.create_process(home_socket=0)
    p0.mmap_anon(0, 8)
    machine.touch(p0, 0)
    page = machine.system.pagestore.pages[p0.page_table.pfn(0)]
    latency = LatencyConfig()
    # Local read.
    before = machine.clock.app_ns
    machine.touch(p0, 0)
    assert machine.clock.app_ns - before == latency.dram_read_ns
    # Re-home the page to the remote socket's DRAM node and re-touch.
    remote = machine.system.nodes[1]
    page.lru.remove(page)
    remote.adopt_page(page, machine.system.nodes[0])
    remote.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
    before = machine.clock.app_ns
    machine.touch(p0, 0)
    expected = int(latency.dram_read_ns * latency.remote_socket_multiplier)
    assert machine.clock.app_ns - before == expected
    assert machine.stats.get("accesses.remote") == 1


def test_single_socket_never_counts_remote():
    machine = Machine(SimulationConfig(dram_pages=(64,), pm_pages=(256,)), "static")
    process = machine.create_process()
    process.mmap_anon(0, 64)
    for vpage in range(50):
        machine.touch(process, vpage)
    assert machine.stats.get("accesses.remote") == 0


def test_multiclock_runs_on_dual_socket():
    """The per-node daemon design scales to four nodes transparently."""
    machine = Machine(DUAL, "multiclock")
    names = {d.name for d in machine.scheduler.daemons}
    assert names == {
        "kpromoted/0", "kpromoted/1", "kpromoted/2", "kpromoted/3",
        "kswapd/0", "kswapd/1", "kswapd/2", "kswapd/3",
    }
    process = machine.create_process(home_socket=1)
    process.mmap_anon(0, 256)
    for round_ in range(3):
        for vpage in range(200):
            machine.touch(process, vpage)
    assert machine.stats.get("accesses.total") == 600
