"""Process page tables and reverse mappings.

The unsupervised-access path of Section III-A rests on the hardware
accessed bit: the CPU sets it in the PTE on every touch, and scans
test-and-clear it.  :class:`PageTableEntry` carries that bit (plus the
dirty bit the Discussion section proposes weighting by, and a *poisoned*
bit used by the hint-page-fault baselines, which unmap pages to force a
software fault on next access).

With the struct-of-arrays page store the accessed/dirty bits live as
page-level columns (the OR across a page's mappings — exactly the signal
``harvest_accessed`` consumes); the PTE exposes them as properties.  The
table can additionally keep a dense ``vpage → pfn`` translation column
(:attr:`PageTable.v2p`) so the array touch driver can resolve whole
access vectors with one numpy gather instead of a dict probe per access.
The column is built from the entries on that driver's first
:meth:`PageTable.ensure_dense_capacity` call and kept current from then
on; tables only ever driven access by access never allocate it.
"""

from __future__ import annotations

import numpy as np

from repro.mm.page import Page

__all__ = ["PageTableEntry", "PageTable"]

#: Above this vpage the dense translation column would be unreasonably
#: large; the table drops to dict-only mode and the vector path skips it.
_MAX_DENSE_VPAGE = 1 << 26


class PageTableEntry:
    """One virtual-to-physical translation."""

    __slots__ = ("table", "process_id", "vpage", "page", "_poisoned")

    def __init__(
        self,
        process_id: int,
        vpage: int,
        page: Page,
        table: "PageTable | None" = None,
    ) -> None:
        self.table = table
        self.process_id = process_id
        self.vpage = vpage
        self.page = page
        self._poisoned = False

    @property
    def accessed(self) -> bool:
        page = self.page
        return bool(page._store.pte_accessed[page.pfn])

    @accessed.setter
    def accessed(self, value: bool) -> None:
        page = self.page
        page._store.pte_accessed[page.pfn] = value

    @property
    def dirty(self) -> bool:
        page = self.page
        return bool(page._store.pte_dirty[page.pfn])

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
            table._poison_count += 1 if value else -1

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
        #: dense vpage → pfn translation (-1 unmapped); None until the
        #: first ensure_dense_capacity(), grown on demand after it.
        self.v2p: np.ndarray | None = None
        #: False once a vpage beyond the dense bound was mapped; the
        #: vector touch path requires a dense table.
        self.dense = True
        #: live poisoned PTEs; the vector touch path requires zero.
        self._poison_count = 0
        #: bumped on every unmap; the vector touch path caches gathered
        #: translations and only re-gathers when this moves (a *new*
        #: mapping can never invalidate a cached hit, an unmap can).
        self._unmap_gen = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vpage: int) -> bool:
        return vpage in self._entries

    def lookup(self, vpage: int) -> PageTableEntry | None:
        return self._entries.get(vpage)

    def ensure_dense_capacity(self, size: int) -> bool:
        """Build or grow ``v2p`` to cover ``size`` vpages; False if out
        of range or the table is no longer dense."""
        if size > _MAX_DENSE_VPAGE or not self.dense:
            return False
        if self.v2p is None:
            vpages = np.fromiter(self._entries, dtype=np.int64, count=len(self))
            top = int(vpages.max()) + 1 if len(vpages) else 0
            self.v2p = np.full(max(64, size, top), -1, dtype=np.int64)
            self.v2p[vpages] = [pte.page.pfn for pte in self._entries.values()]
        elif size > len(self.v2p):
            grown = np.full(max(size, len(self.v2p) * 2), -1, dtype=np.int64)
            grown[: len(self.v2p)] = self.v2p
            self.v2p = grown
        return True

    def map(self, vpage: int, page: Page) -> PageTableEntry:
        """Install a translation and register it in the page's rmap."""
        if vpage in self._entries:
            raise ValueError(f"vpage {vpage} is already mapped in pid {self.process_id}")
        pte = PageTableEntry(self.process_id, vpage, page, table=self)
        self._entries[vpage] = pte
        page.rmap.append(pte)
        page._store.mapcount[page.pfn] += 1
        if vpage >= _MAX_DENSE_VPAGE:
            self.dense = False
        elif self.v2p is not None and self.ensure_dense_capacity(vpage + 1):
            self.v2p[vpage] = page.pfn
        return pte

    def unmap(self, vpage: int) -> PageTableEntry:
        """Remove a translation and detach it from the page's rmap."""
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
        if pte.poisoned:
            pte.poisoned = False
        if self.v2p is not None and vpage < len(self.v2p):
            self.v2p[vpage] = -1
        self._unmap_gen += 1
        return pte

    def entries(self) -> list[PageTableEntry]:
        return list(self._entries.values())
