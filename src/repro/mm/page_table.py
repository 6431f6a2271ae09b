"""Process page tables and reverse mappings.

The unsupervised-access path of Section III-A rests on the hardware
accessed bit: the CPU sets it in the PTE on every touch, and scans
test-and-clear it.  :class:`PageTableEntry` carries that bit (plus the
dirty bit the Discussion section proposes weighting by, and a *poisoned*
bit used by the hint-page-fault baselines, which unmap pages to force a
software fault on next access).

With the struct-of-arrays page store the accessed/dirty bits live as
page-level columns (the OR across a page's mappings — exactly the signal
``harvest_accessed`` consumes); the PTE exposes them as properties.

The table also keeps a translation column, :attr:`PageTable.v2p`, so the
access driver resolves a whole block of vpages with one ``searchsorted``
over the region starts and one gather.  The column is *region-packed*:
every region registered with :meth:`PageTable.add_region` owns a slice
of it, so its size is the mapped footprint, not the highest vpage.  An
entry holds the page's pfn, :data:`UNMAPPED`, or ``-2 - pfn`` for a
poisoned PTE, so one gather tells the driver which positions need the
full access path (any negative entry).  The column's last entry is a
permanent :data:`UNMAPPED` sentinel that every vpage outside all regions
resolves to.  Beside it, :attr:`PageTable.slot_supervised` says per slot
whether the region takes supervised accesses.

A vpage's slot depends only on the region layout, and regions are only
appended, so slots read at one :attr:`PageTable.n_regions` stay valid
while that count holds: a producer may hand the driver slots it
resolved earlier, and the driver re-gathers ``v2p`` at them, without a
new ``searchsorted``, when pages are unmapped or poisoned.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.mm.page import Page

__all__ = ["PageTableEntry", "PageTable", "UNMAPPED"]

#: A ``v2p`` entry with no translation (and the sentinel slot).
UNMAPPED = -1


class PageTableEntry:
    """One virtual-to-physical translation."""

    __slots__ = ("table", "process_id", "vpage", "page", "_poisoned", "slot")

    def __init__(
        self,
        process_id: int,
        vpage: int,
        page: Page,
        table: "PageTable | None" = None,
        slot: int = -1,
    ) -> None:
        self.table = table
        self.process_id = process_id
        self.vpage = vpage
        self.page = page
        self._poisoned = False
        #: this translation's index in ``table.v2p`` (-1 while no region
        #: covers ``vpage``), found once by ``map`` or ``add_region``.
        self.slot = slot

    @property
    def accessed(self) -> bool:
        page = self.page
        return page._store.pte_accessed.item(page.pfn)

    @accessed.setter
    def accessed(self, value: bool) -> None:
        page = self.page
        page._store.pte_accessed[page.pfn] = value

    @property
    def dirty(self) -> bool:
        page = self.page
        return page._store.pte_dirty.item(page.pfn)

    @dirty.setter
    def dirty(self, value: bool) -> None:
        page = self.page
        page._store.pte_dirty[page.pfn] = value

    @property
    def poisoned(self) -> bool:
        return self._poisoned

    @poisoned.setter
    def poisoned(self, value: bool) -> None:
        value = bool(value)
        if value == self._poisoned:
            return
        self._poisoned = value
        table = self.table
        if table is not None:
            table._set_poisoned(self, value)

    def touch(self, is_write: bool) -> None:
        """What the MMU does on an ordinary access."""
        page = self.page
        store = page._store
        store.pte_accessed[page.pfn] = True
        if is_write:
            store.pte_dirty[page.pfn] = True

    def __repr__(self) -> str:
        bits = "".join(
            bit
            for bit, on in (("A", self.accessed), ("D", self.dirty), ("P", self.poisoned))
            if on
        )
        return f"PTE(pid={self.process_id}, vpage={self.vpage}, pfn={self.page.pfn}, {bits or '-'})"


class PageTable:
    """Virtual page → PTE map for one process."""

    def __init__(self, process_id: int) -> None:
        self.process_id = process_id
        self._entries: dict[int, PageTableEntry] = {}
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
        #: bumped on every unmap: a translation the driver resolved may
        #: have gone away, and GAPBS cache absorption may change.
        self._unmap_gen = 0
        #: bumped on every poisoning: a resolved translation may have
        #: turned slow.
        self._poison_gen = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vpage: int) -> bool:
        return vpage in self._entries

    def lookup(self, vpage: int) -> PageTableEntry | None:
        return self._entries.get(vpage)

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
        for vpage, pte in self._entries.items():
            if start <= vpage < start + n_pages:
                pte.slot = self._slot(vpage)
                self._store(pte)

    def _slot(self, vpage: int) -> int:
        """``vpage``'s index in ``v2p``; the sentinel's if in no region."""
        idx = bisect.bisect_right(self._start_list, vpage) - 1
        if idx >= 0 and vpage < self._end_list[idx]:
            return self._base_list[idx] + vpage - self._start_list[idx]
        return -1

    def _store(self, pte: PageTableEntry) -> None:
        slot = pte.slot
        if slot >= 0:
            pfn = pte.page.pfn
            self.v2p[slot] = -2 - pfn if pte._poisoned else pfn

    def _set_poisoned(self, pte: PageTableEntry, value: bool) -> None:
        self._store(pte)
        if value:
            self._poison_gen += 1

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

    def map(self, vpage: int, page: Page) -> PageTableEntry:
        """Install a translation and register it in the page's rmap."""
        if vpage in self._entries:
            raise ValueError(f"vpage {vpage} is already mapped in pid {self.process_id}")
        pte = PageTableEntry(self.process_id, vpage, page, self, self._slot(vpage))
        self._entries[vpage] = pte
        page.rmap.append(pte)
        mapcount = page._store.mapcount
        mapcount[page.pfn] = mapcount.item(page.pfn) + 1
        self._store(pte)
        return pte

    def unmap(self, vpage: int) -> PageTableEntry:
        """Remove a translation and detach it from the page's rmap.

        The entry is detached from the table too, so poisoning a stale
        entry later writes nothing to ``v2p``.
        """
        pte = self._entries.pop(vpage, None)
        if pte is None:
            raise KeyError(f"vpage {vpage} is not mapped in pid {self.process_id}")
        page = pte.page
        page.rmap.remove(pte)
        store = page._store
        store.mapcount[page.pfn] -= 1
        if store.mapcount[page.pfn] == 0:
            # The last mapping took the harvested reference signal with
            # it: an unmapped page never reads as accessed or dirty.
            store.pte_accessed[page.pfn] = False
            store.pte_dirty[page.pfn] = False
        pte._poisoned = False
        pte.table = None
        if pte.slot >= 0:
            self.v2p[pte.slot] = UNMAPPED
        self._unmap_gen += 1
        return pte

    def entries(self) -> list[PageTableEntry]:
        return list(self._entries.values())
