"""The MULTI-CLOCK tiering policy — the paper's core contribution.

MULTI-CLOCK runs a modified CLOCK per memory tier.  Page importance is
established by *two* recent references (recency + frequency): the first
reference makes a page referenced, the second activates it, the third
marks it ``PagePromote`` and moves it to the per-node promote list, and
the periodic ``kpromoted`` daemon migrates referenced promote-list pages
up to DRAM.  Demotion is the watermark-driven PFRA path extended to
migrate cold pages down a tier instead of straight to swap.
"""

from __future__ import annotations

from repro.core.demotion import DemotionDaemon
from repro.core.kpromoted import KPromoted
from repro.core.state import move_to_promote
from repro.mm.numa import NumaNode
from repro.mm.page import Page
from repro.mm.system import MemorySystem
from repro.mm.vmscan import mark_page_accessed
from repro.policies.base import PolicyFeatures, TieringPolicy, register_policy
from repro.sim.events import Daemon

__all__ = ["MultiClockPolicy"]


@register_policy("multiclock")
class MultiClockPolicy(TieringPolicy):
    """Recency+frequency page selection with per-tier CLOCKs."""

    features = PolicyFeatures(
        tiering="MULTI-CLOCK",
        page_access_tracking="Reference Bit",
        selection_promotion="Recency + Frequency",
        selection_demotion="Recency",
        numa_aware="Yes",
        space_overhead="No",
        generality="All",
        evaluation="PM",
        usability_limitation="None",
        key_insight="Low overhead Recency/Frequency",
    )

    def __init__(self, system: MemorySystem) -> None:
        super().__init__(system)
        self._kpromoted = [KPromoted(self, node) for node in system.nodes.values()]
        self._kswapd = [DemotionDaemon(self, node) for node in system.nodes.values()]
        self._c_promote_list_adds = system.stats.counter("multiclock.promote_list_adds")

    # -- hooks ---------------------------------------------------------------

    def second_reference_hook(self, node: NumaNode, page: Page) -> None:
        """Edge 10: re-referenced active page joins the promote list."""
        move_to_promote(node, page)
        if self.system.trace is not None:
            self.system.trace.trace_mm_promote_list_add(node.node_id, page.pfn, "hook")
        self.promote_list_added([page.pfn])

    def promote_list_added(self, pfns: list[int]) -> None:
        """Account edge-10 joins: this hook's, and kswapd's rebalance."""
        self._c_promote_list_adds.n += len(pfns)
        metrics = self.system.metrics
        if metrics is not None:
            now_ns = self.system.clock.now_ns
            for pfn in pfns:
                metrics.note_promote_list_add(pfn, now_ns)

    def mark_page_accessed(self, page: Page) -> None:
        mark_page_accessed(self.system, page, on_second_reference=self.second_reference_hook)

    def daemons(self) -> list[Daemon]:
        cfg = self.system.config.daemons
        promoted = [
            Daemon(kp.name, cfg.kpromoted_interval_s, kp.run) for kp in self._kpromoted
        ]
        swapd = [
            Daemon(ks.name, cfg.kswapd_interval_s, ks.run) for ks in self._kswapd
        ]
        return promoted + swapd

    # -- reclaim ---------------------------------------------------------------

    def on_memory_pressure(self, node_ids: tuple[int, ...]) -> None:
        """Wake the pressured nodes' kswapd immediately (bounded work)."""
        for daemon in self._kswapd:
            if daemon.node.node_id in node_ids:
                work_ns = daemon.balance()
                if work_ns:
                    self.system.clock.advance_system(work_ns)

    def direct_reclaim(self) -> int:
        """Run the demotion pipeline synchronously, then fall back."""
        freed_before = self.system.stats.get("reclaim.evictions")
        for daemon in self._kswapd:
            work_ns = daemon.balance()
            if work_ns:
                self.system.clock.advance_system(work_ns)
        freed = self.system.stats.get("reclaim.evictions") - freed_before
        if any(node.can_allocate() for node in self.system.nodes.values()):
            return max(freed, 1)
        return super().direct_reclaim()
