"""Property-based whole-machine invariants under random access streams."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state import PageState, classify
from repro.machine import Machine
from repro.mm.flags import PageFlags
from repro.mm.lruvec import ListKind
from repro.sim.config import DaemonConfig, SimulationConfig

FOOTPRINT = 96

config_strategy = st.builds(
    lambda dram, pm, interval: SimulationConfig(
        dram_pages=(dram,),
        pm_pages=(pm,),
        daemons=DaemonConfig(
            kpromoted_interval_s=interval, kswapd_interval_s=interval / 2
        ),
    ),
    dram=st.integers(min_value=16, max_value=64),
    pm=st.integers(min_value=64, max_value=256),
    interval=st.floats(min_value=1e-5, max_value=1e-3),
)

stream_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=FOOTPRINT - 1),
        st.booleans(),
        st.integers(min_value=1, max_value=32),
    ),
    min_size=1,
    max_size=300,
)

policy_strategy = st.sampled_from(
    ["static", "multiclock", "nimble", "autotiering-opm", "memory-mode"]
)


def check_invariants(machine: Machine, process) -> None:
    system = machine.system
    # 1. Frame accounting: used pages per node equals pages linked on its
    #    lists (every allocated page is on exactly one list).
    for node in system.nodes.values():
        on_lists = sum(len(lst) for lst in node.lruvec.all_lists())
        assert on_lists == node.used_pages, node
        assert 0 <= node.free_pages <= node.capacity_pages
        for lst in node.lruvec.all_lists():
            for page in lst:
                assert page.node_id == node.node_id
    # 2. Page-table consistency: every translation is registered in its
    #    page's reverse map and points at a live node.
    table = process.page_table
    resident = [system.pagestore.pages[table.pfn(vpage)] for vpage in table.vpages()]
    for vpage, page in zip(table.vpages(), resident):
        assert (process.pid, vpage) in page.rmap
        assert page.node_id in system.nodes
    # 3. A page is never simultaneously mapped and swapped.
    for vpage in range(FOOTPRINT):
        if vpage in table:
            assert not system.backing.is_swapped(process.pid, vpage)
    # 4. Flags agree with list membership.
    for node in system.nodes.values():
        for page in node.lruvec.list_for(ListKind.PROMOTE, True):
            assert page.test(PageFlags.PROMOTE)
        for page in node.lruvec.list_for(ListKind.ACTIVE, True):
            assert page.test(PageFlags.ACTIVE)
        for page in node.lruvec.list_for(ListKind.INACTIVE, True):
            assert not page.test(PageFlags.ACTIVE)
    # 5. Classification is total over resident pages.
    for page in resident:
        assert classify(page) in PageState


@given(config=config_strategy, stream=stream_strategy, policy=policy_strategy)
@settings(max_examples=60, deadline=None)
def test_random_streams_preserve_invariants(config, stream, policy):
    machine = Machine(config, policy)
    process = machine.create_process()
    process.mmap_anon(0, FOOTPRINT)
    for vpage, is_write, lines in stream:
        machine.touch(process, vpage, is_write=is_write, lines=lines)
    check_invariants(machine, process)
    # Time always moved forward and was fully attributed.
    clock = machine.clock
    assert clock.now_ns > 0
    assert clock.app_ns + clock.system_ns == clock.now_ns


@given(stream=stream_strategy)
@settings(max_examples=30, deadline=None)
def test_thrashing_never_ooms_while_swap_has_room(stream):
    """A footprint twice the machine's memory must survive on swap."""
    config = SimulationConfig(
        dram_pages=(16,),
        pm_pages=(32,),
        daemons=DaemonConfig(kpromoted_interval_s=1e-4, kswapd_interval_s=5e-5),
    )
    machine = Machine(config, "multiclock")
    process = machine.create_process()
    process.mmap_anon(0, FOOTPRINT)
    for vpage, is_write, lines in stream:
        machine.touch(process, vpage, is_write=is_write, lines=lines)
    assert machine.stats.get("oom.kills") == 0
    check_invariants(machine, process)


@given(
    stream=stream_strategy,
    policy=st.sampled_from(["multiclock", "nimble"]),
)
@settings(max_examples=30, deadline=None)
def test_accounting_counters_are_consistent(stream, policy):
    config = SimulationConfig(
        dram_pages=(24,),
        pm_pages=(96,),
        daemons=DaemonConfig(kpromoted_interval_s=1e-4, kswapd_interval_s=1e-4),
    )
    machine = Machine(config, policy)
    process = machine.create_process()
    process.mmap_anon(0, FOOTPRINT)
    for vpage, is_write, lines in stream:
        machine.touch(process, vpage, is_write=is_write, lines=lines)
    stats = machine.stats
    assert stats.get("accesses.total") == len(stream)
    assert stats.get("accesses.dram") + stats.get("accesses.pm") == len(stream)
    # Faults never exceed accesses; each swap-in consumed a prior swap-out.
    assert stats.get("faults.minor") + stats.get("faults.major") <= len(stream)
    assert machine.system.backing.swap_ins <= machine.system.backing.swap_outs
