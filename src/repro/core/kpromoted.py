"""The ``kpromoted`` daemon — one kernel thread per NUMA node.

Section III-B: kpromoted "is woken up periodically to scan the lists,
update them, and migrate any pages from the promote list to a higher tier
due to recent unsupervised accesses.  Every time kpromoted runs, it first
selects the candidate pages for promotion and promotes all the pages it
selected."  The per-node thread design "follows those of PFRA for the
kswapd eviction daemon ... to avoid lock contention".

A run over its node does, budget-limited per list (the paper sets the
scan budget to 1024 pages):

1. inactive-list scan — harvest accessed bits, walking pages up the
   recency ladder (edges 1 and 6 of Figure 4);
2. active-list scan — re-referenced pages move to the promote list
   (edges 7/8 and 10);
3. promote-list drain — pages referenced since joining are migrated to
   the DRAM tier (edge 13, making room by demand demotion if DRAM is
   under pressure); stale ones recycle to the active list (edge 11).
   On a DRAM node there is no higher tier, so the whole promote list
   recycles to active.

The two harvesting scans run as column sweeps over the struct-of-arrays
page store: one pointer walk collects the budgeted tail segment, numpy
masks decide every transition at once, and the list is rebuilt with a
handful of fancy-index link writes.  Tracepoints are emitted from the
outcome masks in visit order, and a policy that overrides
``observe_scan`` sees every visited page in that order.  A budget larger
than the list keeps the hand turning: harvested bits are spent, so each
further visit is a pure rotation of the survivors.  The drain is a
page-at-a-time loop — every page it visits leaves the list through the
migration machinery, which is where all the cost lives anyway.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.state import recycle_promote_to_active
from repro.mm.flags import PageFlags
from repro.mm.lruvec import ListKind
from repro.mm.numa import NumaNode
from repro.mm.pagestore import NO_PFN
# shrink_inactive_list is unused here but stays importable from this
# module: figbench/layers.py patches every module's binding of it.
from repro.mm.vmscan import ScanResult, shrink_inactive_list  # noqa: F401
from repro.policies.base import TieringPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.multiclock import MultiClockPolicy

__all__ = ["KPromoted"]

_NO_PFNS = np.empty(0, dtype=np.int64)

# Flag bits bound once as plain ints (see repro.mm.flags).
_REFERENCED = int(PageFlags.REFERENCED)
_ACTIVE = int(PageFlags.ACTIVE)
_PROMOTE_REFERENCED = int(PageFlags.PROMOTE | PageFlags.REFERENCED)
_LRU = int(PageFlags.LRU)


class KPromoted:
    """Promotion daemon bound to one node of a MULTI-CLOCK system."""

    def __init__(self, policy: "MultiClockPolicy", node: NumaNode) -> None:
        self.policy = policy
        self.node = node
        stats = policy.system.stats
        self._c_runs = stats.counter("kpromoted.runs")
        self._c_pages_scanned = stats.counter("kpromoted.pages_scanned")
        self._c_referenced = stats.counter("kpromoted.referenced")
        self._c_activated = stats.counter("kpromoted.activated")
        self._c_to_promote_list = stats.counter("kpromoted.to_promote_list")
        self._c_promoted = stats.counter("kpromoted.promoted")
        self._c_deactivated = stats.counter("kpromoted.deactivated")
        overridden = type(policy).observe_scan is not TieringPolicy.observe_scan
        self._observe_scan = policy.observe_scan if overridden else None

    @property
    def name(self) -> str:
        return f"kpromoted/{self.node.node_id}"

    def run(self, now_ns: int) -> int:
        """One wakeup; returns nanoseconds of system work performed."""
        system = self.policy.system
        budget = system.config.daemons.scan_budget_pages
        total = ScanResult()
        for is_anon in (True, False):
            total.merge(self._scan_inactive(is_anon, budget))
            total.merge(self._scan_active(is_anon, budget))
            total.merge(self._drain_promote(is_anon, budget))
        self._c_runs.n += 1
        self._c_pages_scanned.n += total.scanned
        # Ladder-activity counters: consumed by the adaptive-interval
        # controller (Section VII extension) as its workload signal.
        self._c_referenced.n += total.referenced
        self._c_activated.n += total.activated
        self._c_to_promote_list.n += total.to_promote_list
        self._c_promoted.n += total.promoted
        # Edge 11: promote-list pages recycled to active (stale, or the
        # promotion could not make room) — without this the ladder's
        # recycling arm is invisible next to the other counters.
        self._c_deactivated.n += total.deactivated
        return total.system_ns

    def _sweep(
        self, kind: ListKind, is_anon: bool, budget: int
    ) -> tuple[ScanResult, np.ndarray]:
        """One budgeted CLOCK pass over a list; returns the climbing pfns.

        A page accessed while referenced climbs the ladder: it is
        unlinked and returned in visit order for the caller to place.  A
        page accessed once gains REFERENCED and rotates; an idle page
        rotates.
        """
        result = ScanResult()
        system = self.policy.system
        lst = self.node.lruvec.list_for(kind, is_anon)
        n = len(lst)
        if n == 0 or budget <= 0:
            result.system_ns = system.hardware.scan_ns(0)
            return result, _NO_PFNS
        store = lst._store
        k = min(budget, n)
        visited = store.walk_tail(lst, k)
        self._observe(visited)
        col_acc = store.pte_accessed
        col_flags = store.flags
        # harvest_accessed across the whole segment: accessed AND mapped.
        acc = col_acc[visited] & (store.mapcount[visited] > 0)
        if acc.any():
            col_acc[visited[acc]] = False
        ref = (col_flags[visited] & _REFERENCED) != 0
        climb = acc & ref
        new_ref = acc & ~ref
        survivors = visited[~climb]
        n_ref = int(np.count_nonzero(new_ref))
        if n_ref:
            col_flags[visited[new_ref]] |= _REFERENCED
        if budget > n:
            # The scan lapped the list.  Harvested bits are spent, so the
            # hand keeps turning over the survivors in rotation order, one
            # pure rotation per visit, until the budget is spent; an
            # emptied list stops the scan at n.
            laps = np.resize(survivors, budget - n) if len(survivors) else survivors
            self._observe(laps)
            result.scanned = n + len(laps)
            survivors = np.roll(survivors, -len(laps))
            rest_tail = NO_PFN
        else:
            result.scanned = k
            rest_tail = int(store.lru_prev[visited[-1]]) if k < n else NO_PFN
        climbers = visited[climb]
        store.rebuild_after_scan(lst, survivors, rest_tail, len(climbers))
        result.referenced = n_ref
        result.system_ns = system.hardware.scan_ns(result.scanned)
        return result, climbers

    def _observe(self, pfns: np.ndarray) -> None:
        """Show each visited page, in visit order, to the policy's
        ``observe_scan`` override (the base no-op is skipped)."""
        if self._observe_scan is not None:
            pages = self.policy.system.pagestore.pages
            for pfn in pfns.tolist():
                self._observe_scan(pages[pfn])

    def _climb(
        self, climbers: np.ndarray, kind: ListKind, is_anon: bool,
        clear: int, gain: int,
    ) -> None:
        """Put unlinked climbers at the head of ``kind``, in visit order."""
        store = self.policy.system.pagestore
        store.flags[climbers] = (store.flags[climbers] & ~clear) | gain
        lst = self.node.lruvec.list_for(kind, is_anon)
        store.prepend_head_block(lst, climbers, _LRU)

    def _scan_inactive(self, is_anon: bool, budget: int) -> ScanResult:
        """Advance referenced inactive pages up the ladder (edges 1, 6)."""
        result, climbers = self._sweep(ListKind.INACTIVE, is_anon, budget)
        self._climb(climbers, ListKind.ACTIVE, is_anon, _REFERENCED, _ACTIVE)
        result.activated = len(climbers)
        tr = self.policy.system.trace
        if tr is not None:
            for pfn in climbers.tolist():
                tr.trace_mm_lru_activate(self.node.node_id, pfn, "kpromoted")
        return result

    def _scan_active(self, is_anon: bool, budget: int) -> ScanResult:
        """Move twice-referenced active pages to the promote list (edge 10)."""
        result, climbers = self._sweep(ListKind.ACTIVE, is_anon, budget)
        self._climb(
            climbers, ListKind.PROMOTE, is_anon, _ACTIVE, _PROMOTE_REFERENCED,
        )
        result.to_promote_list = len(climbers)
        system = self.policy.system
        if system.trace is not None:
            for pfn in climbers.tolist():
                system.trace.trace_mm_promote_list_add(self.node.node_id, pfn, "kpromoted")
        if system.metrics is not None:
            now_ns = system.clock.now_ns
            for pfn in climbers.tolist():
                system.metrics.note_promote_list_add(pfn, now_ns)
        return result

    def _drain_promote(self, is_anon: bool, budget: int) -> ScanResult:
        """Promote referenced promote-list pages to DRAM (edges 11-13)."""
        result = ScanResult()
        system = self.policy.system
        tr = system.trace
        promote = self.node.lruvec.list_for(ListKind.PROMOTE, is_anon)
        can_go_up = self.node.tier.next_higher() is not None
        for page in promote.iter_from_tail():
            if result.scanned >= budget:
                break
            result.scanned += 1
            # Consume BOTH reference signals every pass.  With the old
            # `harvest_accessed() or test_and_clear(...)` short-circuit, a
            # harvested accessed bit left the REFERENCED flag set, so the
            # page carried a stale second reference into its next ladder
            # pass instead of having to earn one.
            harvested = page.harvest_accessed()
            referenced = page.test_and_clear(_REFERENCED)
            accessed = harvested or referenced
            if not can_go_up or not accessed:
                recycle_promote_to_active(self.node, page)
                result.deactivated += 1
                if tr is not None:
                    tr.trace_kpromoted_recycle(
                        self.node.node_id, page.pfn,
                        "top_tier" if not can_go_up else "stale",
                    )
                if system.metrics is not None:
                    system.metrics.note_promote_drop(page.pfn)
                continue
            if self.policy.promote_page(page):
                result.promoted += 1
                if tr is not None:
                    tr.trace_kpromoted_promote(
                        self.node.node_id, page.pfn, page.node_id
                    )
            else:
                # Could not make room upstairs; keep the page hot locally.
                recycle_promote_to_active(self.node, page)
                result.deactivated += 1
                if tr is not None:
                    tr.trace_kpromoted_recycle(self.node.node_id, page.pfn, "no_room")
                if system.metrics is not None:
                    system.metrics.note_promote_drop(page.pfn)
        result.system_ns = system.hardware.scan_ns(result.scanned)
        return result
