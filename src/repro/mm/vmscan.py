"""Generic CLOCK scan machinery — the simulator's ``mm/vmscan.c``.

MULTI-CLOCK "determines the relative importance of pages within and
across tiers by running a modified version of Linux's Page Frame
Reclamation Algorithm (PFRA) ... to each memory tier separately"
(Section III).  This module implements the *unmodified* PFRA pieces that
both MULTI-CLOCK and the baselines share:

* ``mark_page_accessed`` — the supervised-access inline state update;
* ``shrink_active_list``-style deactivation of the active tail;
* ``shrink_inactive_list``-style reclaim scanning, with demotion to a
  lower tier or eviction to the backing store;
* ``demote_page`` — the one demotion step (migrate down, drop the
  recency flags, join the destination's inactive head) that the scan,
  demand demotion and AutoTiering-OPM's cold demotion share.

The one MULTI-CLOCK-specific transition (active-referenced page accessed
again → promote list, edge 10 of Figure 4) is injected — as the
``on_second_reference`` hook of ``mark_page_accessed`` and the
``on_promote_list_add`` accounting of ``deactivate_excess_active`` — so
this code stays policy-neutral.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.mm.flags import PageFlags
from repro.mm.lruvec import ListKind
from repro.mm.numa import NumaNode
from repro.mm.page import Page
from repro.mm.pagestore import NO_PFN
from repro.mm.system import MemorySystem

__all__ = [
    "mark_page_accessed",
    "deactivate_excess_active",
    "shrink_inactive_list",
    "demote_page",
    "PromoteListFn",
    "ScanResult",
    "ScanWeightFn",
]

SecondReferenceHook = Callable[[NumaNode, Page], None]

#: Edge-10 accounting for a deactivate pass: called with the pfns, in
#: visit order, that the pass just moved to the promote list.
PromoteListFn = Callable[[list[int]], None]

#: Per-pfn reclaim pressure: 1 keeps vanilla CLOCK behaviour, anything
#: higher strips the page's second chance (memcg proportional reclaim).
ScanWeightFn = Callable[[int], int]

# Flag bits bound once as plain ints (see repro.mm.flags).
_REFERENCED = int(PageFlags.REFERENCED)
_ACTIVE = int(PageFlags.ACTIVE)
_PROMOTE = int(PageFlags.PROMOTE)
_UNEVICTABLE = int(PageFlags.UNEVICTABLE)
_PINNED = int(PageFlags.LOCKED | PageFlags.UNEVICTABLE)
_LRU = int(PageFlags.LRU)
_REFERENCED_ACTIVE = _REFERENCED | _ACTIVE


@dataclass
class ScanResult:
    """What one list scan did, for cost accounting and stats."""

    scanned: int = 0
    activated: int = 0
    deactivated: int = 0
    referenced: int = 0
    to_promote_list: int = 0
    promoted: int = 0
    demoted: int = 0
    evicted: int = 0
    system_ns: int = 0

    def merge(self, other: "ScanResult") -> "ScanResult":
        self.scanned += other.scanned
        self.activated += other.activated
        self.deactivated += other.deactivated
        self.referenced += other.referenced
        self.to_promote_list += other.to_promote_list
        self.promoted += other.promoted
        self.demoted += other.demoted
        self.evicted += other.evicted
        self.system_ns += other.system_ns
        return self


def mark_page_accessed(
    system: MemorySystem,
    page: Page,
    on_second_reference: SecondReferenceHook | None = None,
) -> None:
    """Supervised-access state update (Linux ``mark_page_accessed()``).

    Walks the Figure-4 edges that fire inline on a system-call access:
    inactive-unreferenced → inactive-referenced (2), inactive-referenced →
    active (6), active-unreferenced → active-referenced (7/8), and — when
    the MULTI-CLOCK hook is supplied — active-referenced → promote (10).
    Pages already on a promote list stay there (12).
    """
    lst = page.lru
    if lst is None or page.test(_UNEVICTABLE):
        return
    node = system.nodes[page.node_id]
    if lst.kind is ListKind.PROMOTE:
        page.set(_REFERENCED)
        return
    if lst.kind is ListKind.INACTIVE:
        if page.test(_REFERENCED):
            _activate(node, page)
            if system.trace is not None:
                system.trace.trace_mm_lru_activate(node.node_id, page.pfn, "mark_accessed")
        else:
            page.set(_REFERENCED)
        return
    if lst.kind is ListKind.ACTIVE:
        if page.test(_REFERENCED) and on_second_reference is not None:
            on_second_reference(node, page)
        else:
            page.set(_REFERENCED)


def deactivate_excess_active(
    system: MemorySystem,
    node: NumaNode,
    is_anon: bool,
    budget: int,
    on_promote_list_add: PromoteListFn | None = None,
) -> ScanResult:
    """Rebalance one active list (the ``shrink_active_list`` analogue).

    Callers invoke it under pressure (kswapd, direct reclaim), so it
    always scans; there is no active:inactive ratio test.  Scanning from
    the tail: unreferenced pages are deactivated (edge 9); referenced-once
    pages get their flag and a second chance; idle referenced pages lose
    the flag and rotate; pages referenced *again* go to the promote list
    (edge 10) when ``on_promote_list_add`` is given — MULTI-CLOCK's kswapd
    passes its edge-10 accounting — or rotate to the head without it
    (vanilla CLOCK).  Pages of an over-limit memcg lose every second
    chance and deactivate on first sight (proportional reclaim).

    The scan runs on pagestore columns: each pass classifies a whole tail
    segment with boolean masks, rotates the survivors in visit order with
    one splice and moves each leaving block to its list head in one
    splice.  Tracepoints are emitted from the outcome masks in visit
    order.  A budget larger than the list re-enters the loop over the
    rotated survivors, the way a tail-to-head walk that samples its next
    hop before each visit carries on past the old head: every page leaves
    within three visits, so the passes terminate.
    """
    result = ScanResult()
    store = system.pagestore
    lruvec = node.lruvec
    active = lruvec.list_for(ListKind.ACTIVE, is_anon)
    inactive = lruvec.list_for(ListKind.INACTIVE, is_anon)
    promote = lruvec.list_for(ListKind.PROMOTE, is_anon)
    memcg = system.memcg
    tr = system.trace
    col_flags = store.flags
    col_acc = store.pte_accessed
    col_map = store.mapcount
    while result.scanned < budget:
        n = len(active)
        if n == 0:
            break
        k = min(budget - result.scanned, n)
        visited = store.walk_tail(active, k)
        # Harvest: the accessed bit counts (and clears) only on mapped
        # pages, exactly Page.harvest_accessed.
        acc = col_acc[visited] & (col_map[visited] > 0)
        hit = visited[acc]
        if len(hit):
            col_acc[hit] = False
        ref = (col_flags[visited] & _REFERENCED) != 0
        heavy = np.zeros(k, dtype=bool) if memcg is None else memcg.over_limit_mask(visited)
        if on_promote_list_add is None:
            climb = np.zeros(k, dtype=bool)
        else:
            climb = acc & ref & ~heavy
        keep = (acc | ref) & ~heavy & ~climb
        drop = ~keep & ~climb
        gain_ref = visited[keep & acc & ~ref]
        if len(gain_ref):
            col_flags[gain_ref] |= _REFERENCED
        lose_ref = visited[keep & ~acc]
        if len(lose_ref):
            col_flags[lose_ref] &= ~_REFERENCED
        if tr is not None:
            _trace_deactivate_pass(tr, node.node_id, visited, heavy, climb, drop)
        result.scanned += k
        result.referenced += int(np.count_nonzero(acc & keep))
        survivors = visited[keep]
        demoted = visited[drop]
        climbers = visited[climb]
        # The unvisited remainder keeps its internal links; sample its
        # tail before the splice below rewrites the visited links.
        rest_tail = NO_PFN if k >= n else int(store.lru_prev[int(visited[-1])])
        store.rebuild_after_scan(active, survivors, rest_tail, k - len(survivors))
        if len(demoted):
            col_flags[demoted] &= ~(_ACTIVE | _REFERENCED)
            store.prepend_head_block(inactive, demoted, _LRU)
            result.deactivated += len(demoted)
        if len(climbers):
            col_flags[climbers] = (col_flags[climbers] & ~_ACTIVE) | (
                _PROMOTE | _REFERENCED
            )
            store.prepend_head_block(promote, climbers, _LRU)
            result.to_promote_list += len(climbers)
            on_promote_list_add(climbers.tolist())
        if k >= n and not keep[:-1].any():
            # The walk samples its next hop before each visit: visiting
            # the original head it sees the first rotated survivor — or,
            # when nothing rotated ahead of it, the end of the list, and
            # stops with budget to spare.
            break
    result.system_ns = system.hardware.scan_ns(result.scanned)
    if system.metrics is not None:
        system.metrics.note_vmscan(
            node.node_id, system.clock.now_ns,
            scanned=result.scanned, stolen=0, deactivated=result.deactivated,
        )
    return result


def _trace_deactivate_pass(
    tr, node_id: int, visited: np.ndarray, heavy: np.ndarray,
    climb: np.ndarray, drop: np.ndarray,
) -> None:
    """Emit one pass's tracepoints in visit order from its outcome masks."""
    for i in np.flatnonzero(drop | climb).tolist():
        pfn = int(visited[i])
        if climb[i]:
            tr.trace_mm_promote_list_add(node_id, pfn, "hook")
        else:
            tr.trace_mm_lru_deactivate(node_id, pfn, "memcg" if heavy[i] else "vmscan")


def shrink_inactive_list(
    system: MemorySystem,
    node: NumaNode,
    is_anon: bool,
    target_free: int,
    budget: int,
    demote_dest: NumaNode | None,
    scanner: str = "direct",
    scan_weight: ScanWeightFn | None = None,
) -> ScanResult:
    """Reclaim from one inactive list (the ``shrink_inactive_list`` analogue).

    Unreferenced tail pages are demoted to ``demote_dest`` when given
    (edge 3), or evicted to the backing store at the lowest tier (edge 4).
    Referenced pages climb the recency ladder instead (edges 1 and 6).
    Stops after freeing ``target_free`` pages or scanning ``budget``.
    ``scanner`` tags the emitted tracepoints with who is reclaiming
    ("kswapd", "demand", or the default direct-reclaim path), so a trace
    can be cross-checked against the per-daemon counters.

    ``scan_weight`` (auto-wired from an armed memcg controller carrying
    limits) applies proportional reclaim: a page weighing more than 1 is
    denied the activate/rotate ladder and reclaimed as if idle.
    """
    result = ScanResult()
    lruvec = node.lruvec
    inactive = lruvec.list_for(ListKind.INACTIVE, is_anon)
    if scan_weight is None and system.memcg is not None and system.memcg.has_limits:
        scan_weight = system.memcg.scan_weight
    tr = system.trace
    # Per-page state lives in the store columns; hoist them so each
    # visit costs a couple of ``.item()`` reads and int ops instead of a
    # chain of Page property calls.  Nothing in this loop creates pages,
    # so the columns cannot reallocate mid-scan.
    store = system.pagestore
    col_flags = store.flags
    col_acc = store.pte_accessed
    col_map = store.mapcount
    for page in inactive.iter_from_tail():
        if result.scanned >= budget or (result.demoted + result.evicted) >= target_free:
            break
        result.scanned += 1
        pfn = page.pfn
        flags = col_flags.item(pfn)
        if flags & _PINNED:
            # Rotate, don't just skip: a bare continue leaves the pinned
            # page at the tail, so every subsequent scan burns budget
            # re-visiting it and reclaim stalls behind it.
            inactive.rotate_to_head(page)
            continue
        # Inlined Page.harvest_accessed: test-and-clear the PTE accessed
        # bit, counting only mapped pages.
        accessed = col_acc.item(pfn) and col_map.item(pfn) > 0
        if accessed:
            col_acc[pfn] = False
            if scan_weight is None or scan_weight(pfn) <= 1:
                if flags & _REFERENCED:
                    _activate(node, page)
                    result.activated += 1
                    if tr is not None:
                        tr.trace_mm_lru_activate(node.node_id, pfn, scanner)
                    continue
                col_flags[pfn] = flags | _REFERENCED
                inactive.rotate_to_head(page)
                result.referenced += 1
                continue
            # Over-limit group: no recency ladder — fall through and
            # reclaim the page as if it were idle (proportional reclaim).
        if (
            demote_dest is not None
            and demote_dest.can_allocate()
            and demote_page(system, page, demote_dest)
        ):
            result.demoted += 1
            if tr is not None:
                tr.trace_mm_vmscan_demote(node.node_id, pfn, demote_dest.node_id, scanner)
            continue
        if node.tier.next_lower() is None or demote_dest is None:
            try:
                result.system_ns += system.unmap_and_evict(page)
            except MemoryError:
                break  # swap full: give up, OOM is the caller's problem
            result.evicted += 1
        else:
            # Demotion was the plan but the destination refused (full, or
            # the migration failed): rotate past the page so the scan
            # keeps making progress instead of stalling on the same tail.
            inactive.rotate_to_head(page)
    result.system_ns += system.hardware.scan_ns(result.scanned)
    if system.metrics is not None:
        system.metrics.note_vmscan(
            node.node_id, system.clock.now_ns,
            scanned=result.scanned,
            stolen=result.demoted + result.evicted,
            deactivated=0,
        )
    return result


def demote_page(system: MemorySystem, page: Page, dest: NumaNode) -> bool:
    """Migrate ``page`` down to ``dest`` (edge 3); False if it stays put.

    A demoted page loses ``REFERENCED`` and ``ACTIVE`` and joins the
    head of ``dest``'s inactive list of its family.
    """
    if not system.migrator.migrate_with_retry(page, dest).ok:
        return False
    flags = page._store.flags
    pfn = page.pfn
    flags[pfn] = flags.item(pfn) & ~_REFERENCED_ACTIVE
    dest.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
    return True


def _activate(node: NumaNode, page: Page) -> None:
    """Move a page to its active list head (edge 6)."""
    lst = page.lru
    if lst is not None:
        lst.remove(page)
    page.clear(_REFERENCED)
    page.set(_ACTIVE)
    node.lruvec.list_of(page, ListKind.ACTIVE).add_head(page)
