"""The struct-of-arrays page store and the ``Page`` view protocol must
agree: after any interleaving of touches, explicit promotions/demotions,
and evictions, the pfn-indexed columns describe exactly the state the
view objects and intrusive lists report.

This is the safety net under the SoA refactor — hot loops index the
columns directly while cold paths go through ``Page`` properties and
``LruList`` methods, so any divergence between the two protocols is a
latent corruption bug even if no current caller trips over it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.machine import Machine
from repro.mm.flags import PageFlags
from repro.mm.lruvec import ListKind
from repro.mm.migrate import MigrationOutcome
from repro.mm.pagestore import NO_PFN
from repro.sim.config import DaemonConfig, SimulationConfig

FOOTPRINT = 80

op_strategy = st.one_of(
    st.tuples(
        st.just("touch"),
        st.integers(min_value=0, max_value=FOOTPRINT - 1),
        st.booleans(),
        st.integers(min_value=1, max_value=16),
    ),
    st.tuples(
        st.just("migrate"),
        st.integers(min_value=0, max_value=10_000),  # resident-page pick
        st.integers(min_value=0, max_value=10_000),  # destination pick
        st.just(0),
    ),
    st.tuples(
        st.just("evict"),
        st.integers(min_value=0, max_value=10_000),
        st.just(0),
        st.just(0),
    ),
)

stream_strategy = st.lists(op_strategy, min_size=1, max_size=250)

policy_strategy = st.sampled_from(["static", "multiclock", "nimble"])


def resident_pages(machine, process):
    table = process.page_table
    pages = machine.system.pagestore.pages
    return [pages[table.pfn(vpage)] for vpage in table.vpages()]


def apply_ops(machine, process, ops):
    system = machine.system
    nodes = list(system.nodes.values())
    for kind, a, b, c in ops:
        if kind == "touch":
            machine.touch(process, a, is_write=b, lines=c)
        elif kind == "migrate":
            pages = resident_pages(machine, process)
            if not pages:
                continue
            page = pages[a % len(pages)]
            dest = nodes[b % len(nodes)]
            outcome = system.migrator.migrate(page, dest)
            if outcome is MigrationOutcome.MIGRATED:
                # Re-link the detached page the way vmscan/kpromoted do.
                page.clear(PageFlags.ACTIVE)
                page.clear(PageFlags.PROMOTE)
                dest.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
        else:  # evict
            pages = resident_pages(machine, process)
            if not pages:
                continue
            page = pages[a % len(pages)]
            try:
                system.unmap_and_evict(page)
            except MemoryError:
                pass  # swap full: eviction refused atomically


def check_columns_match_views(machine, process):
    system = machine.system
    store = system.pagestore
    n = len(store)

    # -- per-page: every column readable through the view reads the same.
    for pfn in range(n):
        page = store.page_at(pfn)
        assert page.pfn == pfn and page._store is store  # identity-stable
        assert page.node_id == int(store.node[pfn])
        assert int(page.flags) == int(store.flags[pfn])
        assert page.is_anon == bool(store.is_anon[pfn])
        assert page.born_ns == int(store.born_ns[pfn])
        assert page.last_promoted_ns == int(store.last_promoted[pfn])
        assert len(page.rmap) == int(store.mapcount[pfn])
        # An unmapped page must never read as referenced: the store
        # clears both PTE bits when the last mapping goes away.
        if not page.rmap:
            assert not store.pte_accessed[pfn]
            assert not store.pte_dirty[pfn]
            assert not page.any_accessed()

    # -- links: the view neighbours are exactly the link columns.
    for pfn in range(n):
        page = store.page_at(pfn)
        prev = int(store.lru_prev[pfn])
        nxt = int(store.lru_next[pfn])
        assert page.lru_prev is (None if prev < 0 else store.page_at(prev))
        assert page.lru_next is (None if nxt < 0 else store.page_at(nxt))
        if int(store.lru_id[pfn]) < 0:
            # Off-list pages carry no stale links and no LRU flag.
            assert prev == NO_PFN and nxt == NO_PFN
            assert not (int(store.flags[pfn]) & PageFlags.LRU)
            assert page.lru is None

    # -- lists: walking the intrusive chain visits exactly the pfns whose
    #    lru_id column names the list, in reciprocally-linked order.
    for node in system.nodes.values():
        for lst in node.lruvec.all_lists():
            if lst.list_id < 0:  # never bound: provably empty
                assert len(lst) == 0
                continue
            member_pfns = set(np.flatnonzero(store.lru_id[:n] == lst.list_id))
            walked = []
            cursor = lst._head
            while cursor >= 0:
                walked.append(cursor)
                nxt = int(store.lru_next[cursor])
                if nxt >= 0:
                    assert int(store.lru_prev[nxt]) == cursor
                cursor = nxt
            assert len(walked) == len(lst) == len(member_pfns)
            assert set(walked) == member_pfns
            assert [p.pfn for p in lst] == walked
            assert [p.pfn for p in lst.iter_from_tail()] == walked[::-1]
            for pfn in walked:
                page = store.page_at(pfn)
                assert page.lru is lst
                assert int(store.flags[pfn]) & PageFlags.LRU
                assert page.node_id == node.node_id

    # -- awaiting-reaccess column backs the system's pending count.
    assert int(np.count_nonzero(store.awaiting_ns[:n] >= 0)) == \
        system._awaiting_count


@given(ops=stream_strategy, policy=policy_strategy)
@settings(max_examples=50, deadline=None)
def test_columns_and_views_agree_after_random_interleavings(ops, policy):
    config = SimulationConfig(
        dram_pages=(24,),
        pm_pages=(64,),
        swap_pages=256,
        daemons=DaemonConfig(
            kpromoted_interval_s=2e-4, kswapd_interval_s=1e-4
        ),
    )
    machine = Machine(config, policy)
    process = machine.create_process()
    process.mmap_anon(0, FOOTPRINT)
    apply_ops(machine, process, ops)
    check_columns_match_views(machine, process)
