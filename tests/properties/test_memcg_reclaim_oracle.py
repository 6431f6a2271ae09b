"""Targeted memcg reclaim against the page-at-a-time walk it replaced.

``MemcgController.reclaim_group`` reads each list's tail prefix (kept
from an earlier pass while the list's generation stands still, walked
afresh otherwise) and picks the group's unpinned pages with one column
mask.  The oracle below is the walk it replaced, kept here verbatim as a
test-only reference: one page at a time off ``iter_from_tail``, one
``memcg_id``/``flags`` probe per page, the scan cap and the target
checked before every visit.

Hypothesis generates the list states.  Pages land on two nodes and all
four reclaimable lists (inactive/active x anon/file), charged to one of
up to four interleaved groups or to none, some LOCKED or UNEVICTABLE,
in long runs so a list can outgrow ``RECLAIM_SCAN_CAP``.  Targets range
from zero to far above the group's eligible pages, and swap can be too
small to hold them, so the pass meets a full swap part-way.  Both walks
run on identically built machines and must return the same count,
evict the same pfns in the same order, and leave the same clock, swap
slots, group books, charge column and list order behind.

The sequence test keeps one controller across many passes, so its kept
prefixes are reused: reclaims are interleaved with head and tail
inserts, removals and rotations anywhere on a list, shrink and
deactivate passes, charge moves and pinning, and the twin machine runs
the oracle after every step.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mm.debug import check_invariants
from repro.mm.flags import PageFlags
from repro.mm.lruvec import ListKind
from repro.mm.memcg import RECLAIM_SCAN_CAP, MemcgController
from repro.mm.system import MemorySystem
from repro.mm.vmscan import deactivate_excess_active, shrink_inactive_list
from repro.sim.config import SimulationConfig

CONFIG = SimulationConfig(dram_pages=(1536,), pm_pages=(1536,))
KINDS = (ListKind.INACTIVE, ListKind.ACTIVE)
PINS = (0, 0, int(PageFlags.LOCKED), int(PageFlags.UNEVICTABLE))


def oracle_reclaim_group(controller: MemcgController, group, target: int) -> int:
    """The page-at-a-time targeted reclaim walk."""
    store = controller.system.pagestore
    memcg_col = store.memcg_id
    flags_col = store.flags
    pinned = int(PageFlags.LOCKED | PageFlags.UNEVICTABLE)
    freed = 0
    scanned = 0
    for lst in controller._lists_tail_first():
        for page in lst.iter_from_tail():
            if freed >= target or scanned >= RECLAIM_SCAN_CAP:
                return freed
            scanned += 1
            pfn = page.pfn
            if memcg_col[pfn] != group.id or flags_col[pfn] & pinned:
                continue
            try:
                controller.system.unmap_and_evict(page)
            except MemoryError:
                return freed
            freed += 1
    return freed


def decode(byte: int, n_groups: int) -> tuple[int, ListKind, bool, int, bool, int]:
    """One pattern byte -> (node, list kind, anon, pin flags, dirty, group).

    Group 0 is "uncharged"; pin slot 1 marks a dirty unpinned page.
    """
    pin = (byte >> 3) & 3
    return (byte & 1, KINDS[(byte >> 1) & 1], bool(byte & 4), PINS[pin],
            pin == 1, (byte >> 5) % (n_groups + 1))


def link(lst, page, *, head: bool = True) -> None:
    """Add ``page`` to ``lst``, carrying ``ACTIVE`` exactly when ``lst``
    is an active list, as the kernel keeps ``PageActive``."""
    if lst.kind is ListKind.ACTIVE:
        page.set(PageFlags.ACTIVE)
    else:
        page.clear(PageFlags.ACTIVE)
    (lst.add_head if head else lst.add_tail)(page)


def build(runs, n_groups: int, swap_pages: int):
    """A machine whose lists hold ``runs``: each ``(count, pattern)``
    adds ``count`` pages, cycling through the pattern's bytes."""
    system = MemorySystem(CONFIG.with_overrides(swap_pages=swap_pages))
    memcg = system.memcg = MemcgController(system)
    owners = [system.create_process("uncharged")]
    groups = []
    for i in range(n_groups):
        process = system.create_process(f"g{i}")
        group = memcg.create_group(process.name)
        memcg.attach(process, group)
        owners.append(process)
        groups.append(group)
    footprint = max(1, sum(count for count, __ in runs))
    for process in owners:
        process.mmap_anon(0, footprint)
    next_vpage = [0] * len(owners)
    for count, pattern in runs:
        for i in range(count):
            node_id, kind, anon, pin, dirty, owner = decode(
                pattern[i % len(pattern)], n_groups
            )
            node = system.nodes[node_id]
            page = node.allocate_page(is_anon=anon)
            process = owners[owner]
            process.page_table.map(next_vpage[owner], page)
            next_vpage[owner] += 1
            if owner:
                memcg.commit_charge(page, process)
            link(node.lruvec.list_for(kind, anon), page)
            if pin:
                page.set(PageFlags(pin))
            if dirty:
                page.set(PageFlags.DIRTY)
    evicted: list[int] = []
    evict = system.unmap_and_evict

    def logged_evict(page):
        charged = evict(page)
        evicted.append(page.pfn)
        return charged

    system.unmap_and_evict = logged_evict
    return system, groups, evicted


def books(system: MemorySystem):
    """Everything a reclaim pass may change, in comparable form."""
    clock = system.clock
    store = system.pagestore
    lists = [
        [page.pfn for page in node.lruvec.list_for(kind, anon).iter_from_tail()]
        for node in system.nodes.values()
        for kind in KINDS
        for anon in (True, False)
    ]
    # Pids come from a global counter; name processes by creation order.
    order = {pid: i for i, pid in enumerate(system.processes)}
    return {
        "clock": (clock.now_ns, clock.app_ns, clock.system_ns),
        "swap": sorted((order[pid], vpage) for pid, vpage in system.backing._swapped),
        "groups": [(g.rss_total, dict(g.rss)) for g in system.memcg.groups],
        "memcg_id": store.memcg_id[: len(store)].tolist(),
        "lists": lists,
        "used": [node.used_pages for node in system.nodes.values()],
    }


runs_strategy = st.lists(
    st.tuples(st.integers(1, 300), st.binary(min_size=1, max_size=6)),
    min_size=1, max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(
    runs=runs_strategy,
    n_groups=st.integers(1, 4),
    victim=st.integers(0, 3),
    target=st.one_of(st.integers(0, 8), st.integers(0, 900)),
    swap_pages=st.one_of(st.integers(1, 40), st.just(1 << 20)),
)
# One group's pages sit past the scan cap behind a long uncharged run.
@example(runs=[(600, b"\x00"), (50, b"\x20")], n_groups=1, victim=0,
         target=10, swap_pages=1 << 20)
# The victim's file pages sit on PM, walked first; its anon pages on
# DRAM outnumber the swap slots, so the pass stops at the first anon
# page that no longer fits.
@example(runs=[(200, b"\x24\x21\x00")], n_groups=1, victim=0,
         target=500, swap_pages=17)
def test_one_pass_matches_page_at_a_time_walk(
    runs, n_groups, victim, target, swap_pages
):
    old_system, old_groups, old_evicted = build(runs, n_groups, swap_pages)
    new_system, new_groups, new_evicted = build(runs, n_groups, swap_pages)
    assert books(old_system) == books(new_system)
    victim %= n_groups
    old_freed = oracle_reclaim_group(old_system.memcg, old_groups[victim], target)
    new_freed = new_system.memcg.reclaim_group(new_groups[victim], target)
    assert new_freed == old_freed
    assert new_evicted == old_evicted
    assert len(new_evicted) == new_freed
    assert books(new_system) == books(old_system)


# -- one controller across many passes --------------------------------------

#: First vpage of each owner's region for pages added mid-sequence.
FRESH_BASE = 1 << 20
OPS = ("reclaim", "reclaim", "reclaim", "head", "tail", "remove", "rotate",
       "shrink", "deactivate", "access", "charge", "pin")


def all_lists(system):
    return [
        node.lruvec.list_for(kind, anon)
        for node in system.nodes.values() for kind in KINDS for anon in (True, False)
    ]


def page_at(lst, x: int):
    """The page ``x`` places from the tail (mod the length), or None."""
    if not len(lst):
        return None
    return next(p for i, p in enumerate(lst.iter_from_tail()) if i == x % len(lst))


def step(system, n_groups: int, op: str, x: int, fresh: list[int]) -> int | None:
    """Apply one mutation (or a reclaim, returning its count) to ``system``.

    ``x`` picks the list, the position from its tail, the group and the
    sizes, so both twins of a pair take identical steps."""
    owners = list(system.processes.values())
    memcg = system.memcg
    lists = all_lists(system)
    lst = lists[x % len(lists)]
    node = system.nodes[x & 1]
    anon = bool(x & 2)
    if op == "reclaim":
        target = x % 600 if x & 0x8000 else x % 12
        return memcg.reclaim_group(memcg.groups[(x >> 12) % n_groups], target)
    if op in ("head", "tail"):
        owner = (x >> 4) % (n_groups + 1)
        kind = KINDS[(x >> 2) & 1]
        if not node.can_allocate():
            return None
        page = node.allocate_page(is_anon=anon)
        owners[owner].page_table.map(FRESH_BASE + fresh[owner], page)
        fresh[owner] += 1
        if owner:
            memcg.commit_charge(page, owners[owner])
        link(node.lruvec.list_for(kind, anon), page, head=op == "head")
        return None
    if op == "shrink":
        shrink_inactive_list(system, node, anon, target_free=(x >> 2) % 8 + 1,
                             budget=(x >> 5) % 96 + 1, demote_dest=None)
        return None
    if op == "deactivate":
        deactivate_excess_active(system, node, anon, budget=(x >> 2) % 96 + 1)
        return None
    page = page_at(lst, x >> 3)
    if page is None:
        return None
    if op == "remove":
        lst.remove(page)
        other = ListKind.ACTIVE if lst.kind is ListKind.INACTIVE else ListKind.INACTIVE
        link(system.nodes[page.node_id].lruvec.list_of(page, other), page)
    elif op == "rotate":
        lst.rotate_to_head(page)
    elif op == "access":
        system.pagestore.pte_accessed[page.pfn] = True
    elif op == "charge":
        memcg.uncharge(page)
        owner = (x >> 12) % (n_groups + 1)
        if owner:
            memcg.commit_charge(page, owners[owner])
    elif op == "pin":
        if page.test(PageFlags.LOCKED):
            page.clear(PageFlags.LOCKED)
        else:
            page.set(PageFlags.LOCKED)
    return None


@settings(max_examples=80, deadline=None)
@given(
    runs=st.lists(
        st.tuples(st.integers(1, 160), st.binary(min_size=1, max_size=6)),
        min_size=1, max_size=4,
    ),
    n_groups=st.integers(1, 3),
    ops=st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 1 << 16)),
        min_size=1, max_size=40,
    ),
    swap_pages=st.one_of(st.integers(1, 60), st.just(1 << 20)),
)
# Reclaims that reuse their prefixes around a removal and a rotation
# inside a walked list's prefix and a shrink pass over that list.
@example(runs=[(300, b"\x20\x00\x04")], n_groups=1, swap_pages=1 << 20,
         ops=[("reclaim", 2), ("reclaim", 2), ("remove", 1 | 8),
              ("reclaim", 3), ("rotate", 1 | 16), ("reclaim", 5),
              ("shrink", 4 << 2 | 40 << 5), ("reclaim", 4),
              ("head", 1 | 1 << 4), ("reclaim", 0x8000 | 500)])
# One example per generation bump; each leaves a kept prefix stale
# when that bump is missing.  Lists are numbered as in all_lists (4 is
# PM's inactive anon list, the first one reclaim walks; 6 its active
# anon list); a small reclaim value is the target, bit 12 up the group.
# remove: a charged page inside the prefix moves to the active list.  A
# pass for the other group kept the prefix, since the evicting pass's
# own removals would retire it when remove does not bump.
@example(runs=[(100, b"\x25")], n_groups=2, swap_pages=1 << 20,
         ops=[("reclaim", 3 | 1 << 12), ("remove", 4 | 1 << 3), ("reclaim", 3)])
# rotate_to_head: a charged page inside the prefix goes to the head.
@example(runs=[(100, b"\x25\x05")], n_groups=1, swap_pages=1 << 20,
         ops=[("reclaim", 1), ("rotate", 4 | 1 << 3), ("reclaim", 2)])
# add_tail: a charged page lands behind the prefix, at the list's tail.
@example(runs=[(100, b"\x25\x05")], n_groups=1, swap_pages=1 << 20,
         ops=[("reclaim", 2), ("tail", 1 | 2 | 1 << 4), ("reclaim", 2)])
# rebuild_after_scan: a deactivate pass rotates the accessed tail page
# of the active list, the first list holding pages.
@example(runs=[(100, b"\x27")], n_groups=1, swap_pages=1 << 20,
         ops=[("reclaim", 1), ("access", 6), ("deactivate", 3), ("reclaim", 1)])
# A head insert, which moves no generation: the prefix covered the
# whole list, so the next pass must walk on to the new head.
@example(runs=[(20, b"\x25")], n_groups=2, swap_pages=1 << 20,
         ops=[("reclaim", 1 | 1 << 12), ("head", 1 | 2 | 1 << 4),
              ("reclaim", 0x8000 | 100)])
def test_kept_prefixes_match_page_at_a_time_walk(runs, n_groups, ops, swap_pages):
    old_system, __, old_evicted = build(runs, n_groups, swap_pages)
    new_system, __, new_evicted = build(runs, n_groups, swap_pages)
    for system in (old_system, new_system):
        for process in system.processes.values():
            process.mmap_anon(FRESH_BASE, 64)
    old_fresh, new_fresh = [0] * (n_groups + 1), [0] * (n_groups + 1)
    old_system.memcg.reclaim_group = lambda group, target: oracle_reclaim_group(
        old_system.memcg, group, target
    )
    for op, x in ops:
        old = step(old_system, n_groups, op, x, old_fresh)
        new = step(new_system, n_groups, op, x, new_fresh)
        assert new == old, (op, x)
        assert new_evicted == old_evicted, (op, x)
        assert books(new_system) == books(old_system), (op, x)
    assert check_invariants(new_system) == []
