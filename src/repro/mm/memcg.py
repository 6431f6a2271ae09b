"""Memcg-style per-tenant accounting groups — the simulator's ``memcontrol.c``.

The paper's subject is a Memcached *server*: one machine, many tenants.
This module adds the isolation substrate that colocation needs, modelled
on Linux memory cgroups:

* every page charged at fault time to the faulting process's group
  (``memcg_id`` column in the :class:`~repro.mm.pagestore.PageStore`),
  with per-node RSS books maintained O(1) through migration, eviction
  and region discard;
* a page limit per group: an over-limit group is first reclaimed
  *targeted* (only its own pages evicted, Linux's ``try_charge`` →
  ``try_to_free_mem_cgroup_pages`` path), and its pages lose their CLOCK
  second chance in the shared scans via :meth:`MemcgController.scan_weight`
  and :meth:`MemcgController.over_limit_mask` (proportional reclaim);
* an OOM killer that selects a victim *group* by footprint (RSS + swap,
  the ``oom_badness`` analogue) and kills it — unmapping its pages so
  co-tenants keep running — instead of failing the whole machine.

The controller follows the same nop discipline as tracing and metrics:
``system.memcg`` is ``None`` unless :meth:`repro.machine.Machine.enable_memcg`
was called, every hook site guards on that, and an armed-but-unlimited
controller only writes its own books — runs stay bit-identical to
unarmed runs (asserted by tests).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.mm.flags import PageFlags
from repro.mm.lruvec import ListKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.mm.address_space import Process
    from repro.mm.lruvec import LruList
    from repro.mm.page import Page
    from repro.mm.system import MemorySystem

__all__ = ["MemCgroup", "MemcgController", "ProcessKilledError"]

#: Pages a single targeted-reclaim pass may visit before giving up, so
#: an unsatisfiable limit degrades to slow progress instead of an O(list)
#: walk on every fault.  The visits count whether the pfns come from a
#: fresh tail walk or from a prefix kept since an earlier pass.
RECLAIM_SCAN_CAP = 512


class ProcessKilledError(RuntimeError):
    """An access by a process whose group the OOM killer already killed.

    Raised instead of :class:`~repro.mm.system.OutOfMemoryError` when the
    *faulting* process is itself the chosen victim: the machine survives,
    this tenant does not.  Drivers catch it per tenant and keep feeding
    the survivors.
    """


class MemCgroup:
    """One accounting group: RSS per node, limit, member processes."""

    __slots__ = ("id", "name", "limit_pages", "rss", "rss_total",
                 "processes", "killed")

    def __init__(self, group_id: int, name: str, limit_pages: int | None) -> None:
        self.id = group_id
        self.name = name
        self.limit_pages = limit_pages
        #: resident pages per node id (the per-tier RSS split).
        self.rss: dict[int, int] = {}
        self.rss_total = 0
        self.processes: list["Process"] = []
        self.killed = False

    @property
    def pids(self) -> list[int]:
        return [process.pid for process in self.processes]

    def over_limit(self) -> bool:
        return self.limit_pages is not None and self.rss_total > self.limit_pages

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        limit = "max" if self.limit_pages is None else self.limit_pages
        return (f"MemCgroup(id={self.id}, name={self.name!r}, "
                f"rss={self.rss_total}, limit={limit})")


class MemcgController:
    """Per-machine registry of groups plus the charge/reclaim/OOM logic."""

    def __init__(self, system: "MemorySystem") -> None:
        self.system = system
        self.groups: list[MemCgroup] = []
        self._by_pid: dict[int, MemCgroup] = {}
        self._limited_count = 0
        #: per reclaim list, the tail→head pfn prefix the last targeted
        #: pass walked and the list's ``_gen`` it is exact at.
        self.windows: dict["LruList", tuple[int, np.ndarray]] = {}

    # -- group lifecycle -----------------------------------------------------

    def create_group(self, name: str, limit_pages: int | None = None) -> MemCgroup:
        if limit_pages is not None and limit_pages < 0:
            raise ValueError("limit_pages must be non-negative")
        group = MemCgroup(len(self.groups), name, limit_pages)
        self.groups.append(group)
        if limit_pages is not None:
            self._limited_count += 1
        return group

    def attach(self, process: "Process", group: MemCgroup) -> None:
        """Put ``process`` in ``group`` (must not be in another group)."""
        if process.pid in self._by_pid:
            raise ValueError(f"pid {process.pid} is already in a group")
        group.processes.append(process)
        self._by_pid[process.pid] = group

    def group_of(self, pid: int) -> MemCgroup | None:
        return self._by_pid.get(pid)

    def _group_for(self, process: "Process") -> MemCgroup:
        """The process's group, auto-created (unlimited) on first charge —
        so arming the controller never requires per-process setup."""
        group = self._by_pid.get(process.pid)
        if group is None:
            group = self.create_group(process.name or f"pid{process.pid}")
            self.attach(process, group)
        return group

    @property
    def has_limits(self) -> bool:
        """Whether any group carries a limit — ``shrink_inactive_list``
        consults this to skip per-page weights when none can exceed 1."""
        return self._limited_count > 0

    # -- usage queries --------------------------------------------------------

    def swap_pages_of(self, group: MemCgroup) -> int:
        backing = self.system.backing
        return sum(backing.swapped_pages_of(pid) for pid in group.pids)

    def usage_pages(self, group: MemCgroup) -> int:
        """RSS + swap — the OOM badness footprint."""
        return group.rss_total + self.swap_pages_of(group)

    # -- the charge path ------------------------------------------------------

    def try_charge(self, process: "Process") -> None:
        """Pre-allocation limit check (Linux ``try_charge``).

        An over-limit group gets targeted reclaim — only its own pages
        are evicted — before the allocation proceeds.  The limit is soft
        at the allocator: if reclaim cannot free enough, the fault still
        goes through and the group stays over limit, where proportional
        scan pressure and OOM victim preference take over.
        """
        group = self._group_for(process)
        if group.killed:
            raise ProcessKilledError(
                f"process {process.pid} ({process.name or 'anon'}) belongs to "
                f"OOM-killed group {group.name!r}"
            )
        if group.limit_pages is None:
            return
        excess = group.rss_total + 1 - group.limit_pages
        if excess <= 0:
            return
        self.system.stats.inc("memcg.limit_reclaims")
        freed = self.reclaim_group(group, excess)
        if freed:
            self.system.stats.inc("memcg.pages_reclaimed", freed)

    def commit_charge(self, page: "Page", process: "Process") -> None:
        """Charge a freshly allocated page to the faulting process's group."""
        group = self._group_for(process)
        self.system.pagestore.memcg_id[page.pfn] = group.id
        node_id = page.node_id
        group.rss[node_id] = group.rss.get(node_id, 0) + 1
        group.rss_total += 1

    def uncharge(self, page: "Page") -> None:
        """Drop a page's charge when its frame is released."""
        store = self.system.pagestore
        group_id = store.memcg_id.item(page.pfn)
        if group_id < 0:
            return
        store.memcg_id[page.pfn] = -1
        group = self.groups[group_id]
        group.rss[page.node_id] -= 1
        group.rss_total -= 1

    def note_migrated(self, page: "Page", source_id: int, dest_id: int) -> None:
        """Move a page's charge between nodes on tier migration."""
        group_id = self.system.pagestore.memcg_id.item(page.pfn)
        if group_id < 0:
            return
        group = self.groups[group_id]
        group.rss[source_id] -= 1
        group.rss[dest_id] = group.rss.get(dest_id, 0) + 1

    # -- targeted + proportional reclaim --------------------------------------

    def _lists_tail_first(self) -> Iterable:
        """Every LRU list in reclaim order: lowest tier first, inactive
        before active (evicting from the inactive tail is cheapest)."""
        for node in reversed(self.system.allocator.fallback_order):
            for kind in (ListKind.INACTIVE, ListKind.ACTIVE):
                for is_anon in (True, False):
                    yield node.lruvec.list_for(kind, is_anon)

    def reclaim_group(self, group: MemCgroup, target: int) -> int:
        """Evict up to ``target`` of ``group``'s own resident pages.

        Walks list tails picking only pages charged to ``group``; pinned
        pages are skipped, a full swap ends the pass (the machine-level
        OOM path deals with that).  Returns the number of pages freed.

        The pass visits the lists' pfns tail→head, at most
        :data:`RECLAIM_SCAN_CAP` in all, and one ``memcg_id``/``flags``
        mask over each list's visited pfns picks the group's unpinned
        pages, evicted in walk order: the same pages, in the same order,
        as a page-at-a-time walk that checks the cap and the target
        before every visit.  The visited pfns come from :attr:`windows`,
        the prefix an earlier pass walked, while the list's ``_gen`` is
        the one it was read at (only head inserts happened since, which
        extend it, so a short prefix is walked on from its last pfn);
        otherwise the tail is walked afresh.  After its own evictions the
        pass drops the evicted pfns from the prefix and keeps it exact
        at the new ``_gen`` only if that moved by exactly the evictions.
        """
        system = self.system
        store = system.pagestore
        windows = self.windows
        pinned = int(PageFlags.LOCKED | PageFlags.UNEVICTABLE)
        freed = 0
        scanned = 0
        for lst in self._lists_tail_first():
            if freed >= target or scanned >= RECLAIM_SCAN_CAP:
                break
            need = min(len(lst), RECLAIM_SCAN_CAP - scanned)
            if not need:
                continue
            gen = lst._gen
            window = windows.get(lst)
            if window is None or window[0] != gen:
                prefix = store.walk_tail(lst, need)
            else:
                prefix = window[1]
                if len(prefix) < need:
                    start = store.lru_prev.item(int(prefix[-1])) if len(prefix) else None
                    prefix = np.concatenate(
                        (prefix, store.walk_tail(lst, need - len(prefix), start=start))
                    )
            windows[lst] = (gen, prefix)
            scanned += need
            visited = prefix[:need]
            mine = np.flatnonzero(
                (store.memcg_id[visited] == group.id)
                & ((store.flags[visited] & pinned) == 0)
            )
            evicted = 0
            try:
                for i in mine.tolist():
                    if freed >= target:
                        break
                    system.unmap_and_evict(store.pages[prefix.item(i)])
                    freed += 1
                    evicted += 1
            except MemoryError:
                target = freed  # a full swap ends the pass
            if evicted:
                if lst._gen == gen + evicted:
                    windows[lst] = (lst._gen, np.delete(prefix, mine[:evicted]))
                else:
                    del windows[lst]
        return freed

    def scan_weight(self, pfn: int) -> int:
        """Per-page reclaim pressure for the shared scans.

        Pages of an over-limit group weigh 2: they lose the CLOCK second
        chance, so the shared shrinkers reclaim the offending tenant
        harder while everyone else keeps vanilla behaviour (weight 1).
        """
        group_id = self.system.pagestore.memcg_id.item(pfn)
        if group_id < 0:
            return 1
        return 2 if self.groups[group_id].over_limit() else 1

    def over_limit_mask(self, pfns: np.ndarray) -> np.ndarray:
        """Which of ``pfns`` weigh 2 under :meth:`scan_weight`, as a mask.

        One gather of the ``memcg_id`` column through a per-group table;
        the table's trailing False slot is what uncharged pages (id -1)
        index, so they keep vanilla behaviour.
        """
        table = np.array([group.over_limit() for group in self.groups] + [False])
        return table[self.system.pagestore.memcg_id[pfns]]

    # -- the OOM killer --------------------------------------------------------

    def select_victim(self, faulting: "Process | None" = None) -> MemCgroup | None:
        """Pick the group the OOM killer should kill, or None.

        Preference order, deterministic throughout:

        1. the faulting process's own group, when it is over its limit
           (memcg-scoped OOM: you blew your budget, you die);
        2. any over-limit group, largest footprint (RSS + swap) first;
        3. the largest-footprint group overall.

        Only live groups with resident pages are eligible — killing a
        fully swapped-out group frees no frame and cannot unblock the
        allocation that is failing.
        """
        if faulting is not None:
            own = self._by_pid.get(faulting.pid)
            if (own is not None and not own.killed and own.rss_total > 0
                    and own.over_limit()):
                return own
        candidates = [g for g in self.groups if not g.killed and g.rss_total > 0]
        if not candidates:
            return None
        over = [g for g in candidates if g.over_limit()]
        pool = over or candidates
        return max(pool, key=lambda g: (self.usage_pages(g), -g.id))

    def kill(self, victim: MemCgroup) -> int:
        """Tear the victim down: unmap every region of every member.

        Frames go back to the node free lists and swap slots are
        released (both via ``discard_region``); the group is marked
        killed so later accesses by its processes raise
        :class:`ProcessKilledError`.  Returns the number of frames freed.
        """
        system = self.system
        freed = 0
        for process in victim.processes:
            for region in list(process.regions):
                freed += system.discard_region(process, region)
        victim.killed = True
        system.stats.inc("memcg.oom_group_kills")
        return freed

    def victim_pid(self, victim: MemCgroup) -> int:
        """The pid reported on the OOM trace: the group's first member."""
        return victim.processes[0].pid if victim.processes else -1
