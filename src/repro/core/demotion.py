"""Watermark-driven demotion — MULTI-CLOCK's kswapd extension.

Section III-C, step by step: when a tier is under pressure, (1) promote-
list pages are migrated up first (or moved to the active list when they
cannot be), (2) the active list is rebalanced — unconditionally, since
kswapd only runs under pressure, so the paper's √(10·n):1 active:inactive
threshold never holds it back — and (3) unreferenced inactive-tail pages
are migrated to the lower tier — or, at the lowest tier, written back to
block storage before the OOM killer becomes the last resort.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.state import recycle_promote_to_active
from repro.mm.flags import PageFlags
from repro.mm.lruvec import ListKind
from repro.mm.numa import NumaNode
from repro.mm.vmscan import ScanResult, deactivate_excess_active, shrink_inactive_list
from repro.mm.watermarks import PressureLevel

if TYPE_CHECKING:  # pragma: no cover
    from repro.policies.base import TieringPolicy

__all__ = ["DemotionDaemon"]

_LOCKED = int(PageFlags.LOCKED)


class DemotionDaemon:
    """Per-node kswapd running the Section III-C pressure pipeline.

    Policy-agnostic: it moves pages through the policy's
    :class:`~repro.policies.base.TieringPolicy` movement interface
    (``demotion_destination(node)`` and ``promote_page(page)``); a policy
    with a ``promote_list_added`` accounting hook (MULTI-CLOCK) feeds its
    promote list during the active-list rebalance, others run vanilla
    CLOCK.
    """

    def __init__(self, policy: "TieringPolicy", node: NumaNode) -> None:
        self.policy = policy
        self.node = node
        stats = policy.system.stats
        self._c_runs = stats.counter("kswapd.runs")
        self._c_pages_scanned = stats.counter("kswapd.pages_scanned")
        self._c_demoted = stats.counter("kswapd.demoted")
        self._c_evicted = stats.counter("kswapd.evicted")

    @property
    def name(self) -> str:
        return f"kswapd/{self.node.node_id}"

    def run(self, now_ns: int) -> int:
        """One wakeup; no-op unless the node is below its low watermark."""
        if self.node.pressure() is PressureLevel.NONE:
            return 0
        return self.balance()

    def balance(self) -> int:
        """Reclaim until free pages climb back above the high watermark."""
        system = self.policy.system
        node = self.node
        budget = system.config.daemons.scan_budget_pages
        if system.trace is not None:
            system.trace.trace_kswapd_wake(node.node_id, node.free_pages)
        total = ScanResult()
        total.merge(self._relieve_promote_list(budget))
        demote_dest = self.policy.demotion_destination(node)
        for is_anon in (True, False):
            if not node.watermarks.below_high(node.free_pages):
                break
            total.merge(
                deactivate_excess_active(
                    system, node, is_anon, budget,
                    on_promote_list_add=getattr(self.policy, "promote_list_added", None),
                )
            )
            target = node.watermarks.reclaim_target(node.free_pages)
            if target <= 0:
                break
            total.merge(
                shrink_inactive_list(
                    system, node, is_anon, target, budget, demote_dest,
                    scanner="kswapd",
                )
            )
        self._c_runs.n += 1
        self._c_pages_scanned.n += total.scanned
        self._c_demoted.n += total.demoted
        self._c_evicted.n += total.evicted
        return total.system_ns

    def _relieve_promote_list(self, budget: int) -> ScanResult:
        """Step 1: promote-list pages leave first when under pressure.

        "Any page in the promote list is first attempted to be migrated to
        a higher-performing tier, and if that is not possible ... it is
        moved to the active list."
        """
        result = ScanResult()
        system = self.policy.system
        tr = system.trace
        can_go_up = self.node.tier.next_higher() is not None
        for is_anon in (True, False):
            promote = self.node.lruvec.list_for(ListKind.PROMOTE, is_anon)
            for page in promote.iter_from_tail():
                if result.scanned >= budget:
                    break
                result.scanned += 1
                moved_up = can_go_up and not page.test(_LOCKED)
                if moved_up:
                    moved_up = self.policy.promote_page(page)
                if moved_up:
                    if tr is not None:
                        tr.trace_kswapd_promote(
                            self.node.node_id, page.pfn, page.node_id
                        )
                else:
                    recycle_promote_to_active(self.node, page, keep_referenced=True)
                    result.deactivated += 1
                    if tr is not None:
                        tr.trace_kswapd_recycle_promote(self.node.node_id, page.pfn)
                    if system.metrics is not None:
                        system.metrics.note_promote_drop(page.pfn)
        result.system_ns = system.hardware.scan_ns(result.scanned)
        return result
