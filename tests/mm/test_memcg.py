"""Per-tenant (memcg) accounting: books, limits, OOM victims, invariants.

Covers the colocation substrate end to end: charge/uncharge/migration
bookkeeping, targeted reclaim at the limit, proportional scan weight,
OOM group kill semantics (co-tenants survive, frames return, the trace
carries the victim pid), the ``memcg-accounting`` invariant sweep, and
the bit-identity of armed-but-unlimited runs.
"""

import pytest

from repro.machine import Machine
from repro.mm.debug import check_invariants
from repro.mm.memcg import ProcessKilledError
from repro.run import run_workload
from repro.sim.config import SimulationConfig
from repro.workloads.multitenant import MultiTenantWorkload
from repro.workloads.synthetic import UniformWorkload, ZipfWorkload


def checks_of(violations):
    return {v.check for v in violations}


@pytest.fixture
def machine():
    return Machine(SimulationConfig(dram_pages=(64,), pm_pages=(256,)), "multiclock")


def map_and_touch(machine, process, start, pages):
    process.mmap_anon(start, pages)
    for vpage in range(start, start + pages):
        machine.system.touch(process, vpage)


# -- the charge path ---------------------------------------------------------


def test_pages_charged_to_faulting_group(machine):
    memcg = machine.enable_memcg()
    process = machine.create_process("a")
    group = memcg.create_group("a")
    memcg.attach(process, group)
    map_and_touch(machine, process, 0, 10)
    assert group.rss_total == 10
    assert sum(group.rss.values()) == 10


def test_groups_auto_created_on_first_charge(machine):
    memcg = machine.enable_memcg()
    process = machine.create_process("lazy")
    map_and_touch(machine, process, 0, 4)
    group = memcg.group_of(process.pid)
    assert group is not None and group.name == "lazy"
    assert group.rss_total == 4
    assert group.limit_pages is None


def test_discard_uncharges(machine):
    memcg = machine.enable_memcg()
    process = machine.create_process("a")
    group = memcg.create_group("a")
    memcg.attach(process, group)
    map_and_touch(machine, process, 0, 10)
    region = process.regions[0]
    machine.system.discard_region(process, region)
    assert group.rss_total == 0
    assert all(v == 0 for v in group.rss.values())


def test_migration_moves_charge_between_nodes(machine):
    memcg = machine.enable_memcg()
    process = machine.create_process("a")
    group = memcg.create_group("a")
    memcg.attach(process, group)
    map_and_touch(machine, process, 0, 8)
    # Let kpromoted/kswapd shuffle pages across tiers, then reconcile.
    machine.clock.advance_app(int(1e9))
    machine.drain_daemons()
    store = machine.system.pagestore
    recount: dict[int, int] = {}
    for node in machine.system.nodes.values():
        for lst in node.lruvec.all_lists():
            for page in lst:
                if int(store.memcg_id[page.pfn]) == group.id:
                    recount[node.node_id] = recount.get(node.node_id, 0) + 1
    assert {k: v for k, v in group.rss.items() if v} == recount


def test_attach_twice_rejected(machine):
    memcg = machine.enable_memcg()
    process = machine.create_process("a")
    g1 = memcg.create_group("g1")
    g2 = memcg.create_group("g2")
    memcg.attach(process, g1)
    with pytest.raises(ValueError):
        memcg.attach(process, g2)


def test_enable_twice_rejected(machine):
    machine.enable_memcg()
    with pytest.raises(RuntimeError):
        machine.enable_memcg()


def test_has_limits_tracks_limited_groups(machine):
    memcg = machine.enable_memcg()
    assert not memcg.has_limits
    memcg.create_group("free")
    assert not memcg.has_limits
    memcg.create_group("capped", limit_pages=10)
    assert memcg.has_limits


# -- limits: targeted reclaim and proportional pressure ----------------------


def test_limit_holds_rss_near_the_cap(machine):
    memcg = machine.enable_memcg()
    process = machine.create_process("capped")
    group = memcg.create_group("capped", limit_pages=20)
    memcg.attach(process, group)
    map_and_touch(machine, process, 0, 60)
    # The limit is enforced by targeted reclaim at each fault: RSS may
    # not grow past the cap (the 60-page footprint spills to swap).
    assert group.rss_total <= 20
    assert machine.stats.get("memcg.limit_reclaims") > 0
    assert machine.stats.get("memcg.pages_reclaimed") > 0


def test_targeted_reclaim_leaves_co_tenant_alone(machine):
    memcg = machine.enable_memcg()
    capped = machine.create_process("capped")
    quiet = machine.create_process("quiet")
    g_capped = memcg.create_group("capped", limit_pages=15)
    g_quiet = memcg.create_group("quiet")
    memcg.attach(capped, g_capped)
    memcg.attach(quiet, g_quiet)
    map_and_touch(machine, quiet, 0, 30)
    before = g_quiet.rss_total
    map_and_touch(machine, capped, 1000, 50)
    assert g_capped.rss_total <= 15
    # Only the offender's own pages were reclaimed.
    assert g_quiet.rss_total == before


def test_scan_weight_doubles_for_over_limit_groups(machine):
    memcg = machine.enable_memcg()
    process = machine.create_process("a")
    group = memcg.create_group("a", limit_pages=5)
    memcg.attach(process, group)
    map_and_touch(machine, process, 0, 4)
    pfn = process.page_table.pfn(0)
    assert memcg.scan_weight(pfn) == 1  # under limit: vanilla CLOCK
    group.rss_total = 9  # force over-limit (books restored below)
    assert memcg.scan_weight(pfn) == 2
    group.rss_total = 4


# -- the OOM killer ----------------------------------------------------------


@pytest.fixture
def overcommit_machine():
    """So tight that reclaim runs out of swap and the killer must fire."""
    return Machine(
        SimulationConfig(dram_pages=(32,), pm_pages=(48,), swap_pages=16),
        "multiclock",
    )


def drive_until_killed(machine, process, start, pages):
    process.mmap_anon(start, pages)
    for vpage in range(start, start + pages):
        machine.system.touch(process, vpage)


def test_oom_kills_largest_group_and_cotenant_survives(overcommit_machine):
    machine = overcommit_machine
    memcg = machine.enable_memcg()
    tracer = machine.enable_tracing()
    small = machine.create_process("small")
    big = machine.create_process("big")
    g_small = memcg.create_group("small")
    g_big = memcg.create_group("big")
    memcg.attach(small, g_small)
    memcg.attach(big, g_big)
    map_and_touch(machine, small, 0, 12)
    with pytest.raises(ProcessKilledError):
        drive_until_killed(machine, big, 1000, 200)

    # The victim is the hog: its group is dead and fully uncharged.
    assert g_big.killed and not g_small.killed
    assert g_big.rss_total == 0
    assert machine.stats.get("memcg.oom_group_kills") == 1

    # Satellite: the victim's frames went back to the free lists — the
    # machine has room again and the co-tenant keeps running.
    assert sum(n.free_pages for n in machine.system.nodes.values()) > 0
    for vpage in range(12):
        machine.system.touch(small, vpage)
    assert g_small.rss_total > 0

    # The trace names the victim pid.
    from repro.trace import iter_events

    kills = [e for e in iter_events(tracer) if e.name == "oom_kill"]
    assert kills and kills[-1].fields["pid"] == big.pid

    # A killed tenant's next access dies, every time.
    with pytest.raises(ProcessKilledError):
        machine.system.touch(big, 1000)

    # The books survive the kill intact.
    assert check_invariants(machine.system) == []


def test_oom_without_memcg_still_aborts(overcommit_machine):
    from repro.mm.system import OutOfMemoryError

    machine = overcommit_machine
    process = machine.create_process("hog")
    with pytest.raises(OutOfMemoryError):
        drive_until_killed(machine, process, 0, 200)


# -- the memcg-accounting invariant sweep ------------------------------------


def test_clean_armed_machine_passes_invariants(machine):
    memcg = machine.enable_memcg()
    a = machine.create_process("a")
    b = machine.create_process("b")
    memcg.attach(a, memcg.create_group("a", limit_pages=25))
    memcg.attach(b, memcg.create_group("b"))
    map_and_touch(machine, a, 0, 40)
    map_and_touch(machine, b, 1000, 40)
    machine.clock.advance_app(int(1e9))
    machine.drain_daemons()
    assert check_invariants(machine.system) == []


def test_book_drift_caught(machine):
    memcg = machine.enable_memcg()
    process = machine.create_process("a")
    group = memcg.create_group("a")
    memcg.attach(process, group)
    map_and_touch(machine, process, 0, 10)
    node_id = next(iter(group.rss))
    group.rss[node_id] += 1
    group.rss_total += 1
    assert "memcg-accounting" in checks_of(check_invariants(machine.system))


def test_negative_book_caught(machine):
    memcg = machine.enable_memcg()
    process = machine.create_process("a")
    group = memcg.create_group("a")
    memcg.attach(process, group)
    map_and_touch(machine, process, 0, 2)
    node_id = next(iter(group.rss))
    group.rss[node_id] -= 5
    group.rss_total -= 5
    found = checks_of(check_invariants(machine.system))
    assert "memcg-accounting" in found


def test_total_vs_per_node_mismatch_caught(machine):
    memcg = machine.enable_memcg()
    process = machine.create_process("a")
    group = memcg.create_group("a")
    memcg.attach(process, group)
    map_and_touch(machine, process, 0, 4)
    group.rss_total += 3  # per-node books untouched
    assert "memcg-accounting" in checks_of(check_invariants(machine.system))


def test_killed_group_with_residue_caught(machine):
    memcg = machine.enable_memcg()
    process = machine.create_process("a")
    group = memcg.create_group("a")
    memcg.attach(process, group)
    map_and_touch(machine, process, 0, 4)
    group.killed = True  # killed without the uncharge teardown
    assert "memcg-accounting" in checks_of(check_invariants(machine.system))


# -- nop discipline: armed-but-unlimited is bit-identical --------------------


def two_tenant_workload(seed=3):
    return MultiTenantWorkload(
        [
            ZipfWorkload(120, 4000, seed=seed),
            UniformWorkload(100, 3000, seed=seed + 1),
        ]
    )


def test_armed_unlimited_two_tenant_run_bit_identical():
    config = SimulationConfig(dram_pages=(64,), pm_pages=(256,))

    plain = Machine(config, "multiclock")
    result_plain = run_workload(two_tenant_workload(), config, machine=plain)

    armed = Machine(config, "multiclock")
    armed.enable_memcg()  # armed, no limits: books only, no behaviour
    result_armed = run_workload(two_tenant_workload(), config, machine=armed)

    assert result_armed.to_dict() == result_plain.to_dict()
    assert armed.clock.now_ns == plain.clock.now_ns
    assert armed.stats.snapshot() == plain.stats.snapshot()
    # ... and the controller still kept correct books on the side.
    assert check_invariants(armed.system) == []
    memcg = armed.system.memcg
    assert sum(g.rss_total for g in memcg.groups) > 0
