"""Unit tests for the CONFIG_DEBUG_VM-style invariant checker.

A clean machine must pass; each planted corruption must be caught by the
check named after its kernel analogue.
"""

import pytest

from repro.machine import Machine
from repro.mm.debug import InvariantChecker, InvariantError, check_invariants
from repro.mm.flags import PageFlags
from repro.mm.lruvec import ListKind
from repro.mm.watermarks import PressureLevel
from repro.run import run_workload
from repro.sim.config import DaemonConfig, SimulationConfig
from repro.workloads.synthetic import ZipfWorkload


@pytest.fixture
def machine():
    m = Machine(SimulationConfig(dram_pages=(64,), pm_pages=(256,)), "multiclock")
    process = m.create_process()
    process.mmap_anon(0, 48)
    for vpage in range(48):
        m.system.touch(process, vpage)
    return m


def checks_of(violations):
    return {v.check for v in violations}


def first_listed_page(machine, node_id=0):
    for lst in machine.system.nodes[node_id].lruvec.all_lists():
        for page in lst:
            return page, lst
    raise AssertionError("no resident pages")


def test_clean_machine_has_no_violations(machine):
    assert check_invariants(machine.system) == []


def test_clean_machine_stays_clean_after_daemon_work(machine):
    machine.clock.advance_app(int(2e9))
    machine.drain_daemons()
    assert check_invariants(machine.system) == []


def test_missing_lru_flag_caught(machine):
    page, __ = first_listed_page(machine)
    page.clear(PageFlags.LRU)
    assert "list-structure" in checks_of(check_invariants(machine.system))


@pytest.mark.parametrize("kind", list(ListKind))
def test_flipped_active_flag_caught(machine, kind):
    """PageActive agrees with the list: set on an active list, clear on
    an inactive, promote or unevictable one."""
    node = machine.system.nodes[0]
    page = node.allocate_page(is_anon=True)
    if kind is ListKind.ACTIVE:
        page.set(PageFlags.ACTIVE)
    elif kind is ListKind.UNEVICTABLE:
        page.set(PageFlags.UNEVICTABLE)
    elif kind is ListKind.PROMOTE:
        page.set(PageFlags.PROMOTE)
    node.lruvec.list_of(page, kind).add_head(page)
    assert check_invariants(machine.system) == []
    page.flags ^= PageFlags.ACTIVE
    violations = check_invariants(machine.system)
    assert checks_of(violations) == {"active-flag"}
    assert f"pfn={page.pfn} on node0:{page.lru.name}" in violations[0].detail


def test_broken_back_link_caught(machine):
    lst = next(
        lst for node in machine.system.nodes.values()
        for lst in node.lruvec.all_lists() if len(lst) >= 2
    )
    store = machine.system.pagestore
    store.lru_prev[lst.head.lru_next.pfn] = -1
    assert "list-structure" in checks_of(check_invariants(machine.system))


def test_count_drift_caught(machine):
    __, lst = first_listed_page(machine)
    lst._count += 1
    assert "list-structure" in checks_of(check_invariants(machine.system))


def test_node_accounting_drift_caught(machine):
    machine.system.nodes[0]._used_pages += 1
    violations = check_invariants(machine.system)
    assert "frame-accounting" in checks_of(violations)


def test_cached_free_count_drift_caught(machine):
    machine.system.nodes[0].free += 1
    violations = check_invariants(machine.system)
    assert "frame-accounting" in checks_of(violations)


def test_cached_pressure_level_drift_caught(machine):
    node = machine.system.nodes[0]
    node.level = PressureLevel.MIN if node.level is PressureLevel.NONE else PressureLevel.NONE
    violations = check_invariants(machine.system)
    assert "frame-accounting" in checks_of(violations)


def rmap_details(machine):
    violations = check_invariants(machine.system)
    assert checks_of(violations) == {"rmap"}
    return [v.detail for v in violations]


def test_stray_v2p_write_caught(machine):
    """vpage 1's slot is overwritten with vpage 0's pfn: a translation
    no rmap holds, and an rmap pair whose translation went elsewhere."""
    process = next(iter(machine.system.processes.values()))
    table = process.page_table
    pfn0, pfn1 = table.pfn(0), table.pfn(1)
    table.v2p[table._slot(1)] = pfn0
    details = rmap_details(machine)
    assert any(f"vpage=1 maps pfn={pfn0} but is missing" in d for d in details)
    assert any(f"pfn={pfn1} rmap holds a stale mapping" in d for d in details)


def test_stale_rmap_entry_caught(machine):
    """A pair no table maps, with the mapping count kept in step."""
    process = next(iter(machine.system.processes.values()))
    page = machine.system.pagestore.pages[process.page_table.pfn(0)]
    page.rmap.append((process.pid, 999))
    machine.system.pagestore.mapcount[page.pfn] += 1
    assert rmap_details(machine) == [
        f"pfn={page.pfn} rmap holds a stale mapping (pid={process.pid} vpage=999)"
    ]


def test_mapcount_drift_caught(machine):
    process = next(iter(machine.system.processes.values()))
    pfn = process.page_table.pfn(0)
    machine.system.pagestore.mapcount[pfn] += 1
    assert rmap_details(machine) == [
        f"pfn={pfn} counts 2 mappings but its rmap holds 1"
    ]


def test_stale_reclaim_window_caught(machine):
    """A kept reclaim prefix whose list reordered without a generation
    move: the window check, and only it, fires."""
    memcg = machine.enable_memcg()
    group = memcg.create_group("idle")  # charges nothing: the pass only walks
    assert memcg.reclaim_group(group, 1) == 0
    assert memcg.windows
    assert check_invariants(machine.system) == []
    lst = next(lst for lst, (__, prefix) in memcg.windows.items() if len(prefix) >= 2)
    lst.rotate_to_head(lst.tail)
    assert check_invariants(machine.system) == []  # the move retired the window
    lst._gen, old = memcg.windows[lst][0], lst._gen
    violations = check_invariants(machine.system)
    assert checks_of(violations) == {"memcg-reclaim-window"}
    lst._gen = old
    assert check_invariants(machine.system) == []


def test_swap_accounting_drift_caught(machine):
    machine.system.backing.swap_outs += 1
    assert "swap-accounting" in checks_of(check_invariants(machine.system))


def test_checker_counts_sweeps_and_violations(machine):
    checker = InvariantChecker(machine.system)
    assert checker.check() == []
    assert machine.stats.get("debug_vm.checks") == 1
    assert machine.stats.get("debug_vm.violations") == 0
    page, __ = first_listed_page(machine)
    page.clear(PageFlags.LRU)
    found = checker.check()
    assert found
    assert machine.stats.get("debug_vm.checks") == 2
    assert machine.stats.get("debug_vm.violations") == len(found)
    assert checker.last_violations == found


def test_strict_mode_panics_like_vm_bug_on(machine):
    checker = InvariantChecker(machine.system, strict=True)
    checker.check()  # clean sweep does not raise
    page, __ = first_listed_page(machine)
    page.clear(PageFlags.LRU)
    with pytest.raises(InvariantError) as excinfo:
        checker.check()
    assert excinfo.value.violations


def test_counter_regression_caught(machine):
    checker = InvariantChecker(machine.system)
    counter = machine.stats.counter("test.monotone")
    counter.n = 5
    assert checker.check() == []
    counter.n = 3
    violations = checker.check()
    assert "counter-monotone" in checks_of(violations)


def test_periodic_daemon_registration(machine):
    checker = machine.install_invariant_checker(0.001)
    machine.clock.advance_app(int(0.01 * 1e9))
    machine.drain_daemons()
    assert machine.stats.get("debug_vm.checks") >= 1
    assert machine.stats.get("debug_vm.violations") == 0
    assert checker.last_violations == []


def _checked_zipf_run(interval_s):
    config = SimulationConfig(
        dram_pages=(96,), pm_pages=(512,),
        daemons=DaemonConfig(kpromoted_interval_s=0.002, kswapd_interval_s=0.001,
                             hint_scan_interval_s=0.002),
        seed=7,
    )
    machine = Machine(config, "multiclock")
    if interval_s is not None:
        machine.install_invariant_checker(interval_s, strict=True)
    result = run_workload(
        ZipfWorkload(400, 6_000, seed=7, write_ratio=0.2), config, machine=machine
    ).to_dict()
    result["counters"] = {
        key: value for key, value in result["counters"].items()
        if not key.startswith("debug_vm.")
    }
    return result


@pytest.mark.parametrize("interval_s", [0.01, 0.002])
def test_checker_leaves_the_run_it_checks_unchanged(interval_s):
    """Metamorphic: arming the checker at any interval changes only the
    ``debug_vm.*`` counters.  A checker that paid the scheduler's wakeup
    charge ended this run at 14,584,200 / 14,594,200 virtual ns instead
    of 14,574,680, with DRAM/PM access and kpromoted counts moved."""
    assert _checked_zipf_run(interval_s) == _checked_zipf_run(None)
