"""Process page tables and reverse mappings.

A translation lives in one place: the table's column :attr:`PageTable.v2p`.
Every region registered with :meth:`PageTable.add_region` owns a slice of
it, so its size is the mapped footprint, not the highest vpage.  An entry
holds the page's pfn, :data:`UNMAPPED`, or ``-2 - pfn`` for a poisoned
translation: the hint-page-fault baselines poison translations so the
next access traps into the kernel.  One gather therefore tells the access
driver which positions need the full access path (any negative entry).
The column's last entry is a permanent :data:`UNMAPPED` sentinel that
every vpage outside all regions resolves to, and only a vpage inside a
region can be mapped.  Beside it, :attr:`PageTable.slot_supervised` says
per slot whether the region takes supervised accesses.

The unsupervised-access path of Section III-A rests on the hardware
accessed bit, which the CPU sets on every touch and scans test-and-clear.
With the struct-of-arrays page store the accessed and dirty bits are page
columns (the OR across a page's mappings, exactly the signal
``harvest_accessed`` consumes), so the table holds nothing but the pfn
and the poison mark.  The reverse map is :attr:`Page.rmap`: the
``(pid, vpage)`` pairs that map the page, in mapping order.

A vpage's slot depends only on the region layout, and regions are only
appended, so slots read at one :attr:`PageTable.n_regions` stay valid
while that count holds: a producer may hand the driver slots it
resolved earlier, and the driver re-gathers ``v2p`` at them, without a
new ``searchsorted``, when pages are unmapped or poisoned.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.mm.page import Page
    from repro.mm.pagestore import PageStore

__all__ = ["PageTable", "UNMAPPED"]

#: A ``v2p`` entry with no translation (and the sentinel slot).
UNMAPPED = -1


class PageTable:
    """Virtual page → pfn map for one process."""

    def __init__(self, process_id: int) -> None:
        self.process_id = process_id
        #: region-packed translation column (see the module docstring).
        self.v2p = np.full(1, UNMAPPED, dtype=np.int64)
        # Regions sorted by start: Python lists for scalar bisects, numpy
        # rows for block resolution.  A region's slice of v2p begins at
        # its base.
        self._start_list: list[int] = []
        self._end_list: list[int] = []
        self._base_list: list[int] = []
        self._starts = np.empty(0, dtype=np.int64)
        self._ends = np.empty(0, dtype=np.int64)
        self._bases = np.empty(0, dtype=np.int64)
        #: per ``v2p`` slot: does its region take supervised accesses.
        self.slot_supervised = np.zeros(1, dtype=bool)
        #: the store whose pfns the column holds, bound by ``map``.
        self._store: PageStore | None = None
        self._mapped = 0
        #: bumped on every unmap: a translation the driver resolved may
        #: have gone away, and GAPBS cache absorption may change.
        self._unmap_gen = 0
        #: bumped on every poisoning: a resolved translation may have
        #: turned slow.
        self._poison_gen = 0

    def __len__(self) -> int:
        return self._mapped

    def __contains__(self, vpage: int) -> bool:
        return self.v2p.item(self._slot(vpage)) != UNMAPPED

    def add_region(self, start: int, n_pages: int, supervised: bool = False) -> None:
        """Give the region ``[start, start + n_pages)`` a slice of ``v2p``.

        Regions never overlap (``Process.mmap`` checks) and are never
        removed.  The slice is appended before the sentinel, so slots
        resolved earlier stay valid.
        """
        idx = bisect.bisect_left(self._start_list, start)
        base = len(self.v2p) - 1
        column = np.full(base + n_pages + 1, UNMAPPED, dtype=np.int64)
        column[:base] = self.v2p[:base]
        self.v2p = column
        column = np.zeros(base + n_pages + 1, dtype=bool)
        column[:base] = self.slot_supervised[:base]
        column[base:-1] = supervised
        self.slot_supervised = column
        self._start_list.insert(idx, start)
        self._end_list.insert(idx, start + n_pages)
        self._base_list.insert(idx, base)
        self._starts = np.array(self._start_list, dtype=np.int64)
        self._ends = np.array(self._end_list, dtype=np.int64)
        self._bases = np.array(self._base_list, dtype=np.int64)

    def _slot(self, vpage: int) -> int:
        """``vpage``'s index in ``v2p``; the sentinel's if in no region."""
        idx = bisect.bisect_right(self._start_list, vpage) - 1
        if idx >= 0 and vpage < self._end_list[idx]:
            return self._base_list[idx] + vpage - self._start_list[idx]
        return -1

    @property
    def n_regions(self) -> int:
        """How many regions are registered.  Regions are only appended,
        so slots resolved at one count stay valid while it holds."""
        return len(self._start_list)

    def layout(self) -> tuple:
        """The region layout slots are read against, comparable across
        tables: each region's ``(start, end, base)`` in start order."""
        return tuple(zip(self._start_list, self._end_list, self._base_list))

    def resolve(self, vpages: np.ndarray) -> np.ndarray:
        """Each vpage's ``v2p`` slot; -1, the sentinel, outside every region.

        A slot depends only on the region layout, and ``slot_supervised``
        at it says whether the access is supervised.
        """
        starts = self._starts
        if not len(starts):
            return np.full(len(vpages), -1, dtype=np.int64)
        idx = np.searchsorted(starts, vpages, side="right") - 1
        inside = (idx >= 0) & (vpages < self._ends[idx])
        return np.where(inside, self._bases[idx] + (vpages - starts[idx]), -1)

    def pfn(self, vpage: int) -> int | None:
        """The pfn mapped at ``vpage``, poisoned or not; None if unmapped."""
        entry = self.v2p.item(self._slot(vpage))
        if entry == UNMAPPED:
            return None
        return entry if entry >= 0 else -2 - entry

    def vpages(self) -> list[int]:
        """Every mapped vpage, in ascending order."""
        v2p = self.v2p
        mapped: list[int] = []
        for start, end, base in self.layout():
            offsets = np.flatnonzero(v2p[base:base + end - start] != UNMAPPED)
            mapped.extend((offsets + start).tolist())
        return mapped

    def poison(self, vpage: int) -> int | None:
        """Poison ``vpage``'s translation so its next access hint-faults.

        Returns the mapped pfn, or None (and poisons nothing) if
        ``vpage`` is unmapped.
        """
        slot = self._slot(vpage)
        if self.v2p.item(slot) == UNMAPPED:
            return None
        return self.poison_slots(np.array([slot])).item()

    def poison_slots(self, slots: np.ndarray) -> np.ndarray:
        """:meth:`poison` at ``slots``, each holding a translation;
        returns their pfns.  The hint scanner poisons a wakeup's budget
        with one call."""
        entries = self.v2p[slots]
        fast = entries >= 0
        turned = int(np.count_nonzero(fast))
        if turned:
            self.v2p[slots[fast]] = -2 - entries[fast]
            self._poison_gen += turned
        return np.where(fast, entries, -2 - entries)

    def map(self, vpage: int, page: Page) -> None:
        """Install a translation and register it in the page's rmap.

        Only a vpage inside a region has a slot to hold it.
        """
        slot = self._slot(vpage)
        if slot < 0:
            raise ValueError(f"vpage {vpage} lies in no region of pid {self.process_id}")
        if self.v2p.item(slot) != UNMAPPED:
            raise ValueError(f"vpage {vpage} is already mapped in pid {self.process_id}")
        self._map_at(slot, vpage, page)

    def _map_at(self, slot: int, vpage: int, page: Page) -> None:
        """:meth:`map` at ``vpage``'s known, unmapped slot."""
        store = self._store = page._store
        pfn = page.pfn
        self.v2p[slot] = pfn
        page.rmap.append((self.process_id, vpage))
        store.mapcount[pfn] = store.mapcount.item(pfn) + 1
        self._mapped += 1

    def unmap(self, vpage: int) -> int:
        """Remove a translation, detach it from the page's rmap and
        return its pfn."""
        slot = self._slot(vpage)
        entry = self.v2p.item(slot)
        if entry == UNMAPPED:
            raise KeyError(f"vpage {vpage} is not mapped in pid {self.process_id}")
        pfn = entry if entry >= 0 else -2 - entry
        store = self._store
        store.pages[pfn].rmap.remove((self.process_id, vpage))
        mapcount = store.mapcount.item(pfn) - 1
        store.mapcount[pfn] = mapcount
        if mapcount == 0:
            # The last mapping took the harvested reference signal with
            # it: an unmapped page never reads as accessed or dirty.
            store.pte_accessed[pfn] = False
            store.pte_dirty[pfn] = False
        self.v2p[slot] = UNMAPPED
        self._mapped -= 1
        self._unmap_gen += 1
        return pfn
