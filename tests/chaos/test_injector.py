"""Unit tests for the fault injector — one per injected fault kind."""

import pytest

from repro.faults import (
    CapacityLoss,
    CopyFailures,
    DaemonJitter,
    DaemonStall,
    FaultPlan,
    LockBurst,
    PmSlowdown,
    install_faults,
)
from repro.machine import Machine
from repro.mm.flags import PageFlags
from repro.mm.hardware import MemoryTier
from repro.mm.migrate import MigrationOutcome
from repro.sim.config import SimulationConfig
from repro.sim.events import Daemon


def make_machine(policy="static"):
    return Machine(SimulationConfig(dram_pages=(64,), pm_pages=(256,)), policy)


def advance_to(machine, seconds):
    """Move virtual time to ``seconds`` and fire whatever came due."""
    target_ns = int(seconds * 1e9)
    delta = target_ns - machine.clock.now_ns
    if delta > 0:
        machine.clock.advance_app(delta)
    machine.drain_daemons()


def test_copy_failure_window_opens_and_closes():
    machine = make_machine()
    install_faults(machine, FaultPlan(seed=1, events=(
        CopyFailures(start_s=0.001, end_s=0.010, rate=1.0),
    )))
    engine = machine.system.migrator
    nodes = machine.system.nodes
    # Before the window the hook is armed but inert.
    page = nodes[1].allocate_page(is_anon=True)
    assert engine.migrate(page, nodes[0]).ok
    advance_to(machine, 0.002)
    inside = nodes[1].allocate_page(is_anon=True)
    assert engine.migrate(inside, nodes[0]) is MigrationOutcome.COPY_FAILED
    assert machine.stats.get("faults.copy_failures_injected") == 1
    advance_to(machine, 0.011)
    assert engine.migrate(inside, nodes[0]).ok


def test_retry_heals_injected_failures_at_partial_rate():
    machine = make_machine()
    install_faults(machine, FaultPlan(seed=2, events=(
        CopyFailures(start_s=0.0001, end_s=10.0, rate=0.5),
    )))
    advance_to(machine, 0.001)
    engine = machine.system.migrator
    nodes = machine.system.nodes
    healed = 0
    for __ in range(50):
        page = nodes[1].allocate_page(is_anon=True)
        outcome = engine.migrate_with_retry(page, nodes[0])
        assert outcome.ok  # 10 attempts at 50% virtually never all fail
        healed += 1
    assert machine.stats.get("faults.copy_failures_injected") > 0
    assert machine.stats.get("migrate.retry_succeeded") > 0


def test_capacity_loss_window_offlines_and_restores_frames():
    machine = make_machine()
    node = machine.system.nodes[1]
    free_before = node.free_pages
    install_faults(machine, FaultPlan(seed=3, events=(
        CapacityLoss(start_s=0.001, end_s=0.010, node_id=1, frames=100),
    )))
    advance_to(machine, 0.002)
    assert node.offline_pages == 100
    assert node.free_pages == free_before - 100
    assert machine.stats.get("faults.frames_offlined") == 100
    advance_to(machine, 0.011)
    assert node.offline_pages == 0
    assert node.free_pages == free_before


def test_capacity_loss_is_capped_by_free_frames():
    machine = make_machine()
    node = machine.system.nodes[0]  # 64-frame DRAM node
    install_faults(machine, FaultPlan(seed=4, events=(
        CapacityLoss(start_s=0.001, end_s=0.010, node_id=0, frames=10_000),
    )))
    advance_to(machine, 0.002)
    assert node.offline_pages == 64
    assert node.free_pages == 0
    advance_to(machine, 0.011)
    assert node.free_pages == 64


def test_lock_burst_locks_then_releases_pages():
    machine = make_machine()
    process = machine.create_process()
    process.mmap_anon(0, 32)
    for vpage in range(32):
        machine.system.touch(process, vpage)
    install_faults(machine, FaultPlan(seed=5, events=(
        LockBurst(start_s=0.001, end_s=0.010, node_id=0, pages=8),
    )))
    advance_to(machine, 0.002)
    locked = [
        page for lst in machine.system.nodes[0].lruvec.all_lists()
        for page in lst if page.test(PageFlags.LOCKED)
    ]
    assert len(locked) == 8
    assert machine.stats.get("faults.pages_locked") == 8
    advance_to(machine, 0.011)
    still_locked = [
        page for lst in machine.system.nodes[0].lruvec.all_lists()
        for page in lst if page.test(PageFlags.LOCKED)
    ]
    assert still_locked == []


def test_pm_slowdown_scales_latency_tables_in_window():
    machine = make_machine()
    hardware = machine.system.hardware
    dram, pm = 0, 1  # node ids
    nominal = (list(hardware.read_ns), list(hardware.write_ns))

    def table():
        # The lists and their column copies must agree at every step.
        assert hardware.read_ns == hardware.read_ns_col.tolist()
        assert hardware.write_ns == hardware.write_ns_col.tolist()
        return hardware.read_ns, hardware.write_ns

    install_faults(machine, FaultPlan(seed=6, events=(
        PmSlowdown(start_s=0.001, end_s=0.010, multiplier=3.0),
    )))
    advance_to(machine, 0.002)
    read_ns, write_ns = table()
    assert read_ns[pm] == 3 * nominal[0][pm]
    assert write_ns[pm] == 3 * nominal[1][pm]
    assert (read_ns[dram], write_ns[dram]) == (nominal[0][dram], nominal[1][dram])
    assert hardware.access_ns(MemoryTier.PM, is_write=False) == read_ns[pm]
    advance_to(machine, 0.011)
    assert table() == nominal


def test_daemon_stall_suppresses_wakeups_in_window():
    machine = make_machine()
    fired = []
    machine.scheduler.register(
        Daemon("kpromoted/test", 0.001, lambda now: fired.append(now) or 0)
    )
    install_faults(machine, FaultPlan(seed=7, events=(
        DaemonStall(start_s=0.0005, end_s=0.0055, name_prefix="kpromoted"),
    )))
    advance_to(machine, 0.002)
    advance_to(machine, 0.004)
    assert fired == []  # every wakeup in the window was missed
    advance_to(machine, 0.006)
    advance_to(machine, 0.008)
    assert len(fired) >= 1  # daemon resumes after the window


def test_daemon_jitter_hook_installed_only_inside_window():
    machine = make_machine()
    install_faults(machine, FaultPlan(seed=8, events=(
        DaemonJitter(start_s=0.001, end_s=0.010, max_extra_s=0.002),
    )))
    assert machine.scheduler.jitter_hook is None
    advance_to(machine, 0.002)
    assert machine.scheduler.jitter_hook is not None
    advance_to(machine, 0.011)
    assert machine.scheduler.jitter_hook is None


def test_jitter_never_delays_protected_daemons():
    machine = make_machine()
    injector = install_faults(machine, FaultPlan(seed=9, events=(
        DaemonJitter(start_s=0.0001, end_s=10.0, max_extra_s=0.5),
    )))
    advance_to(machine, 0.001)
    # Built as the program registers them: window edges and observers
    # are cost_free, and only that exempts a daemon.
    edge = Daemon("fault/0/end", 1.0, lambda now: 0, one_shot=True, cost_free=True)
    assert injector._jitter(edge) == 0
    checker = Daemon("debug_vm", 1.0, lambda now: 0, cost_free=True)
    assert injector._jitter(checker) == 0


def test_second_install_rejected():
    machine = make_machine()
    install_faults(machine, FaultPlan(seed=1))
    with pytest.raises(RuntimeError):
        install_faults(machine, FaultPlan(seed=2))


def test_plan_round_trips_through_dict():
    plan = FaultPlan(seed=11, events=(
        CopyFailures(start_s=0.0, end_s=1.0, rate=0.3),
        LockBurst(start_s=0.1, end_s=0.2, node_id=1, pages=16),
        PmSlowdown(start_s=0.5, end_s=0.9, multiplier=2.5),
        CapacityLoss(start_s=0.2, end_s=0.4, node_id=0, frames=32),
        DaemonStall(start_s=0.3, end_s=0.6, name_prefix="kswapd"),
        DaemonJitter(start_s=0.0, end_s=1.0, max_extra_s=0.01),
    ))
    assert FaultPlan.from_dict(plan.to_dict()) == plan


@pytest.mark.parametrize("bad", [
    CopyFailures(start_s=-1.0, end_s=1.0),
    CopyFailures(start_s=1.0, end_s=1.0),
    CopyFailures(start_s=0.0, end_s=1.0, rate=0.0),
    CopyFailures(start_s=0.0, end_s=1.0, rate=1.5),
    PmSlowdown(start_s=0.0, end_s=1.0, multiplier=0.5),
    CapacityLoss(start_s=0.0, end_s=1.0, frames=0),
    LockBurst(start_s=0.0, end_s=1.0, pages=0),
    DaemonJitter(start_s=0.0, end_s=1.0, max_extra_s=0.0),
])
def test_invalid_specs_rejected(bad):
    with pytest.raises(ValueError):
        FaultPlan(seed=1, events=(bad,)).validated()


def test_identical_seeds_inject_identically():
    def run_once():
        machine = make_machine()
        install_faults(machine, FaultPlan(seed=33, events=(
            CopyFailures(start_s=0.0001, end_s=10.0, rate=0.4),
        )))
        advance_to(machine, 0.001)
        engine = machine.system.migrator
        nodes = machine.system.nodes
        outcomes = []
        for __ in range(40):
            page = nodes[1].allocate_page(is_anon=True)
            outcomes.append(engine.migrate_with_retry(page, nodes[0]).value)
        return outcomes, machine.stats.get("faults.copy_failures_injected")

    assert run_once() == run_once()
