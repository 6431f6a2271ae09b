"""AutoTiering-CPM and AutoTiering-OPM baselines.

AutoTiering builds on AutoNUMA's *hint page fault* tracking: a scanner
periodically poisons page-table entries so the next access traps into the
kernel, which records the access and considers migrating the page
(Section II-D).  The paper evaluates two variants:

* **CPM** (conservative promotion-migration): on a hint fault against a
  PM-resident page, migrate it to the best (DRAM) node *only if that node
  has free space* — no demotion, so once DRAM fills the workload keeps
  paying fault costs with no placement benefit.
* **OPM** (opportunistic promotion-migration): additionally "maintains an
  n-bit vector for each page to determine the page coldness" and demotes
  all-cold DRAM pages, both proactively under pressure and on demand to
  make room for promotions.

Both charge the hint-fault latency on every tripped access — the "costly
software page fault-based page access tracking" the paper blames for
AutoTiering's losses — plus scanner time for poisoning PTEs.
"""

from __future__ import annotations

import numpy as np

from repro.mm.flags import PageFlags
from repro.mm.lruvec import ListKind
from repro.mm.numa import NumaNode
from repro.mm.page import Page
from repro.mm.page_table import UNMAPPED
from repro.mm.system import MemorySystem
from repro.mm.vmscan import demote_page
from repro.mm.watermarks import PressureLevel
from repro.policies.base import PolicyFeatures, TieringPolicy, register_policy
from repro.sim.events import Daemon

__all__ = ["HintFaultScanner", "AutoTieringCPM", "AutoTieringOPM", "HISTORY_BITS"]

HISTORY_BITS = 4
"""Width of OPM's per-page access-history vector."""

_HISTORY_MASK = (1 << HISTORY_BITS) - 1

#: Below this many pfns (an event's one, a short run's few), a store per
#: pfn is cheaper than one fancy-indexed update; both set the same bits.
_FANCY_INDEX_MIN = 8

# Flag bits bound once as plain ints (see repro.mm.flags).
_PINNED = int(PageFlags.LOCKED | PageFlags.UNEVICTABLE)


class HintFaultScanner:
    """Round-robin PTE poisoner shared by the hint-fault policies.

    Each pass walks the resident pages of every process in vpage order,
    poisoning up to the configured budget of PTEs per wakeup.  When OPM's
    history tracking is enabled, poisoning a page also shifts its n-bit
    history vector, the page store's ``hint_history`` column (a zero
    shifts in; a hint fault ORs in a 1).  A pass snapshots the mapped
    vpages as ``v2p`` slots, which outlive unmaps, so a wakeup is one
    gather and one store.
    """

    def __init__(self, system: MemorySystem, *, track_history: bool) -> None:
        self.system = system
        self.track_history = track_history
        self._cursors: dict[int, int] = {}
        self._snapshots: dict[int, np.ndarray] = {}

    def run(self, now_ns: int) -> int:
        budget = self.system.config.daemons.hint_scan_budget_pages
        poisoned = 0
        for process in self.system.processes.values():
            if poisoned >= budget:
                break
            poisoned += self._scan_process(process.pid, budget - poisoned)
        self.system.stats.inc("hint.poisoned", poisoned)
        # Poisoning a live PTE costs a TLB shootdown per page.
        return poisoned * self.system.hardware.latency.poison_page_ns

    def _scan_process(self, pid: int, budget: int) -> int:
        """Poison the next ``budget`` snapshot pages still mapped (an
        already-poisoned one counts), and move the cursor past the last."""
        table = self.system.processes[pid].page_table
        snapshot = self._snapshots.get(pid)
        cursor = self._cursors.get(pid, 0)
        if snapshot is None or cursor >= len(snapshot):
            vpages = np.asarray(table.vpages(), dtype=np.int64)
            snapshot = self._snapshots[pid] = table.resolve(vpages)
            cursor = 0
        rest = snapshot[cursor:]
        mapped = np.flatnonzero(table.v2p[rest] != UNMAPPED)[:budget]
        if len(mapped) == budget:
            self._cursors[pid] = cursor + int(mapped[-1]) + 1
        else:
            self._cursors[pid] = len(snapshot)
        pfns = table.poison_slots(rest[mapped])
        if self.track_history:
            # ``at``: a page mapped at two of the slots shifts twice.
            history = self.system.pagestore.hint_history
            np.left_shift.at(history, pfns, 1)
            history[pfns] &= _HISTORY_MASK
        return len(mapped)


class _HintFaultPolicy(TieringPolicy):
    """Common mechanics of the hint-fault family."""

    track_history = False
    #: Promote only into free DRAM: nothing makes room (CPM, AutoNUMA).
    make_room = None

    def __init__(self, system: MemorySystem) -> None:
        super().__init__(system)
        self._scanner = HintFaultScanner(system, track_history=self.track_history)
        self._c_hint_faults = system.stats.counter("hint.faults")
        self._c_hint_promotions = system.stats.counter("hint.promotions")
        self._quiet_dram = tuple(system._node_is_dram)
        self._quiet_all = (True,) * len(self._quiet_dram)

    def daemons(self) -> list[Daemon]:
        cfg = self.system.config.daemons
        return [Daemon("hint-scanner", cfg.hint_scan_interval_s, self._scanner.run)]

    def quiet_hint_nodes(self) -> tuple[bool, ...]:
        """A hint fault on a DRAM page moves nothing; with nothing to make
        room, neither does one on a PM page while no DRAM node has a free
        frame."""
        if self.make_room is None and not any(
            node.free for node in self.system.dram_nodes()
        ):
            return self._quiet_all
        return self._quiet_dram

    def note_hint_faults(self, pfns) -> None:
        """Count the hint faults; OPM also marks each page recently used."""
        self._c_hint_faults.n += len(pfns)
        if self.track_history:
            history = self.system.pagestore.hint_history
            if len(pfns) < _FANCY_INDEX_MIN:
                for pfn in pfns:
                    history[pfn] |= 1
            else:
                history[pfns] |= 1

    def on_hint_fault(self, page: Page) -> None:
        """Recency signal: the poisoned page was just accessed."""
        self.note_hint_faults([page.pfn])
        if self.promote_page(page):
            self._c_hint_promotions.n += 1


@register_policy("autotiering-cpm")
class AutoTieringCPM(_HintFaultPolicy):
    """Conservative: promote on fault only into free DRAM space."""

    features = PolicyFeatures(
        tiering="AutoTiering (CPM)",
        page_access_tracking="Software Page Fault",
        selection_promotion="Recency",
        selection_demotion="N/A",
        numa_aware="Yes",
        space_overhead="Yes",
        generality="All",
        evaluation="PM",
        usability_limitation="Config. NUMA Paths",
        key_insight="Migrate pages to the best NUMA node",
    )


@register_policy("autotiering-opm")
class AutoTieringOPM(_HintFaultPolicy):
    """Opportunistic: n-bit history demotion keeps room for promotions."""

    features = PolicyFeatures(
        tiering="AutoTiering (OPM)",
        page_access_tracking="Software Page Fault",
        selection_promotion="Recency",
        selection_demotion="Frequency",
        numa_aware="Yes",
        space_overhead="Yes",
        generality="All",
        evaluation="PM",
        usability_limitation="Config. NUMA Paths",
        key_insight="Maintain N-bit history for demotion",
    )

    track_history = True

    def daemons(self) -> list[Daemon]:
        cfg = self.system.config.daemons
        demoters = [
            Daemon(
                f"opm-demote/{node.node_id}",
                cfg.kswapd_interval_s,
                self._make_demoter(node),
            )
            for node in self.system.dram_nodes()
        ]
        return super().daemons() + demoters

    _DEMAND_SCAN_BUDGET = 32
    """Pages examined when a single fault needs room; kept small because
    this cost lands synchronously on the faulting access."""

    def make_room(self, dest: NumaNode) -> bool:
        """Demote one history-cold page off ``dest``, charging the scan."""
        demoted, scanned = self._demote_cold(dest, target=1, budget=self._DEMAND_SCAN_BUDGET)
        if scanned:
            self.system.clock.advance_system(self.system.hardware.scan_ns(scanned))
        return demoted > 0

    def _make_demoter(self, node: NumaNode):
        def run(now_ns: int) -> int:
            if node.pressure() is PressureLevel.NONE:
                return 0
            target = node.watermarks.reclaim_target(node.free_pages)
            budget = self.system.config.daemons.scan_budget_pages
            __, scanned = self._demote_cold(node, target, budget=budget)
            return self.system.hardware.scan_ns(scanned)

        return run

    def _demote_cold(self, node: NumaNode, target: int, budget: int) -> tuple[int, int]:
        """Demote DRAM pages whose n-bit history is all zeros.

        Visits each list tail first (inactive before active, anon before
        file) until ``target`` pages moved, ``budget`` pages were
        visited, or, per list, the destination has no frame for a cold
        page.  The visit reads the link, ``hint_history`` and flag
        columns, so only the pages it moves are looked up as ``Page``
        objects; a list's prefix is a dozen pages on a typical call, too
        short for a column mask's fixed numpy cost to pay off.  Returns
        ``(demoted, scanned)``; the caller charges the scan time, keeping
        demand-path and daemon-path accounting separate.
        """
        system = self.system
        dest = self.demotion_destination(node)
        if dest is None:
            return 0, 0
        store = system.pagestore
        step = store.lru_prev.item
        history = store.hint_history.item
        flags = store.flags.item
        demoted = 0
        scanned = 0
        for kind in (ListKind.INACTIVE, ListKind.ACTIVE):
            for is_anon in (True, False):
                lst = node.lruvec.list_for(kind, is_anon)
                count = min(len(lst), budget - scanned)
                if demoted >= target or count <= 0:
                    continue
                # A demoted page leaves the list; read the next link first.
                cursor = lst._tail
                visited = count
                for i in range(count):
                    pfn = cursor
                    cursor = step(pfn)
                    if history(pfn) or flags(pfn) & _PINNED:
                        continue
                    if not dest.can_allocate():
                        visited = i + 1
                        break
                    if demote_page(system, store.pages[pfn], dest):
                        demoted += 1
                        if demoted >= target:
                            visited = i + 1
                            break
                scanned += visited
        system.stats.inc("opm.cold_demotions", demoted)
        return demoted, scanned
