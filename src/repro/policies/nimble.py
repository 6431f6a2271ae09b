"""Nimble's page selection mechanism, re-implemented for comparison.

The paper isolates Nimble's hot/cold identification from its migration
optimisations: "we separated its hot/cold page identification technique
and implemented a single threaded Nimble page selection mechanism ...
for the singular purpose of comparing against MULTI-CLOCK's page
selection" (Section II-D).  Nimble "uses the existing page profiling
technique of the Linux kernel to exchange the top most recently accessed
pages in the upper tier" — i.e. *recency only*: any PM page whose
reference bit is found set during the periodic scan is a promotion
candidate, with no second-reference filter.  That is exactly why Nimble
promotes more pages than MULTI-CLOCK (Fig. 8) but a smaller share of
them are ever re-accessed from DRAM (Fig. 9).

Demotion is the recency-based watermark path (Table I row: demotion =
Recency), shared with MULTI-CLOCK via :class:`DemotionDaemon` — minus the
promote-list stage, which Nimble does not have.
"""

from __future__ import annotations

from repro.core.demotion import DemotionDaemon
from repro.mm.flags import PageFlags
from repro.mm.lruvec import ListKind
from repro.mm.numa import NumaNode
from repro.mm.system import MemorySystem
from repro.policies.base import PolicyFeatures, TieringPolicy, register_policy
from repro.sim.events import Daemon

__all__ = ["NimblePolicy"]

_REFERENCED = int(PageFlags.REFERENCED)


@register_policy("nimble")
class NimblePolicy(TieringPolicy):
    """Recency-only promotion of recently referenced PM pages."""

    features = PolicyFeatures(
        tiering="Nimble",
        page_access_tracking="Reference Bit",
        selection_promotion="Recency",
        selection_demotion="Recency",
        numa_aware="No",
        space_overhead="No",
        generality="All",
        evaluation="Emulator",
        usability_limitation="Config. Launcher",
        key_insight="Optimize huge page migrations",
    )

    def __init__(self, system: MemorySystem) -> None:
        super().__init__(system)
        self._kswapd = [DemotionDaemon(self, node) for node in system.nodes.values()]

    def daemons(self) -> list[Daemon]:
        cfg = self.system.config.daemons
        promoters = [
            Daemon(
                f"nimble-promote/{node.node_id}",
                cfg.kpromoted_interval_s,
                self._make_promoter(node),
            )
            for node in self.system.pm_nodes()
        ]
        swapd = [
            Daemon(ks.name, cfg.kswapd_interval_s, ks.run) for ks in self._kswapd
        ]
        return promoters + swapd

    # -- the recency-only promotion scan ---------------------------------------

    def _make_promoter(self, node: NumaNode):
        def run(now_ns: int) -> int:
            return self._promote_scan(node)

        return run

    def _promote_scan(self, node: NumaNode) -> int:
        """Promote every recently referenced page the budget reaches.

        Scans the node's active then inactive lists from the MRU end (the
        "top most recently accessed pages") and promotes each page whose
        reference bit is set — a single recent reference suffices.

        Each list is one bounded column pass: the pfns the remaining
        budget reaches, head first, one mask of harvested accessed bits
        (mapped pages) or set ``REFERENCED`` flags, and one store that
        clears the harvested bits.  Only the hot pages are then visited
        one at a time, in walk order.  A promotion touches no PM page but
        its own (demand demotion scans DRAM), so the mask is what a
        page-at-a-time visit would read.  Each list is walked only when
        the one before it is done: demand demotions land at the inactive
        head, and the inactive walk must see them, as a visit would.
        """
        system = self.system
        store = system.pagestore
        budget = system.config.daemons.scan_budget_pages
        scanned = 0
        for kind in (ListKind.ACTIVE, ListKind.INACTIVE):
            for is_anon in (True, False):
                lst = node.lruvec.list_for(kind, is_anon)
                count = min(len(lst), budget - scanned)
                if count <= 0:
                    continue
                scanned += count
                walk = store.walk_head(lst, count)
                harvested = store.pte_accessed[walk] & (store.mapcount[walk] > 0)
                store.pte_accessed[walk[harvested]] = False
                hot = harvested | (store.flags[walk] & _REFERENCED != 0)
                for pfn in walk[hot].tolist():
                    page = store.pages[pfn]
                    if self.promote_page(page):
                        system.stats.inc("nimble.promotions")
                    else:
                        page.set(_REFERENCED)
        system.stats.inc("nimble.scan_runs")
        return system.hardware.scan_ns(scanned)
