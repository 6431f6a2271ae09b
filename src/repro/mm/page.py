"""``struct page`` — the unit every policy in this repo reasons about.

A :class:`Page` is the logical memory page.  Migration moves a page
between NUMA nodes (tiers); the page object itself persists, exactly as
the *content* of a Linux page survives ``migrate_pages()`` while its
physical frame changes.  The intrusive ``lru_prev``/``lru_next`` pointers
re-create the kernel trick the paper leans on for zero space overhead:
"we reused the list pointer on the struct page to index the pages in the
promote lists".

Since the struct-of-arrays refactor the page's hot state — node id, the
flag word, timestamps, LRU links, harvested reference bits — lives in
pfn-indexed columns of a :class:`~repro.mm.pagestore.PageStore`; the
``Page`` object is a thin identity-stable *view* over its row.  Cold
paths keep using the same attribute API; hot loops index the columns
directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.mm.flags import PageFlags
from repro.mm.pagestore import PageStore, default_store

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.mm.lruvec import LruList

__all__ = ["Page"]


class Page:
    """One 4 KiB page of memory — a view over its :class:`PageStore` row.

    Attributes:
        pfn: dense per-store page id (the page frame number).
        node_id: NUMA node currently backing the page.
        flags: PFRA flag word (referenced / active / promote / ...).
        is_anon: anonymous vs file-backed, selecting the LRU list family.
        rmap: reverse mapping — the ``(pid, vpage)`` pair of every page
            table entry that maps this page, in mapping order.  Eviction
            walks it to unmap the page; the translation itself is the
            ``v2p`` column of that pid's page table.
        lru: the intrusive list this page currently sits on, or None.
        policy_data: scratch slot for per-policy metadata (e.g.
            multiclock-rw's dirtiness observation).  Policies own it;
            per-page state a column pass reads belongs in a
            :class:`~repro.mm.pagestore.PageStore` column instead, as
            AutoTiering-OPM's access history does (``hint_history``).
    """

    __slots__ = ("_store", "pfn", "rmap", "policy_data")

    def __init__(
        self,
        node_id: int,
        *,
        is_anon: bool = True,
        born_ns: int = 0,
        store: PageStore | None = None,
    ) -> None:
        if store is None:
            store = default_store()
        self._store = store
        self.pfn = store.adopt(self, node_id, is_anon, born_ns)
        self.rmap: list[tuple[int, int]] = []
        self.policy_data: Any = None

    # -- column-backed attributes -----------------------------------------

    @property
    def node_id(self) -> int:
        return self._store.node.item(self.pfn)

    @node_id.setter
    def node_id(self, value: int) -> None:
        self._store.node[self.pfn] = value

    @property
    def is_anon(self) -> bool:
        return self._store.is_anon.item(self.pfn)

    @property
    def flags(self) -> PageFlags:
        return PageFlags(self._store.flags.item(self.pfn))

    @flags.setter
    def flags(self, value: int) -> None:
        self._store.flags[self.pfn] = int(value)

    @property
    def born_ns(self) -> int:
        return self._store.born_ns.item(self.pfn)

    @born_ns.setter
    def born_ns(self, value: int) -> None:
        self._store.born_ns[self.pfn] = value

    @property
    def last_promoted_ns(self) -> int:
        return self._store.last_promoted.item(self.pfn)

    @last_promoted_ns.setter
    def last_promoted_ns(self, value: int) -> None:
        self._store.last_promoted[self.pfn] = value

    @property
    def lru(self) -> "LruList | None":
        store = self._store
        list_id = store.lru_id.item(self.pfn)
        return None if list_id < 0 else store.lists[list_id]

    # The links are read-only views: only LruList and PageStore's list
    # surgery write them, so each list's ``_gen`` moves with its reorders.

    @property
    def lru_prev(self) -> "Page | None":
        neighbour = self._store.lru_prev.item(self.pfn)
        return None if neighbour < 0 else self._store.pages[neighbour]

    @property
    def lru_next(self) -> "Page | None":
        neighbour = self._store.lru_next.item(self.pfn)
        return None if neighbour < 0 else self._store.pages[neighbour]

    # -- flag helpers (named after their page-flags.h counterparts) -------
    #
    # ``flag`` is a PageFlags member or mask, or its int value.  The word
    # is read with ``.item()`` and masked with ``int(flag)``: a member
    # combined with a numpy scalar makes numpy probe the enum class for
    # ``__array_ufunc__``, which costs tens of times the mask itself.

    def test(self, flag: int) -> bool:
        return self._store.flags.item(self.pfn) & int(flag) != 0

    def set(self, flag: int) -> None:
        column = self._store.flags
        column[self.pfn] = column.item(self.pfn) | int(flag)

    def clear(self, flag: int) -> None:
        column = self._store.flags
        column[self.pfn] = column.item(self.pfn) & ~int(flag)

    def test_and_clear(self, flag: int) -> bool:
        """Atomically read and clear — how scans consume REFERENCED."""
        column = self._store.flags
        word = column.item(self.pfn)
        bit = int(flag)
        column[self.pfn] = word & ~bit
        return word & bit != 0

    # -- reverse map -------------------------------------------------------

    def harvest_accessed(self) -> bool:
        """Test-and-clear the accessed bit across every mapping PTE.

        This is the unsupervised-access path of Section III-A: "MULTI-CLOCK
        checks within every process' page table that maps it for a set
        referenced bit".  Returns True if any mapping was accessed.
        """
        if not self.rmap:
            return False
        column = self._store.pte_accessed
        if column.item(self.pfn):
            column[self.pfn] = False
            return True
        return False

    def any_accessed(self) -> bool:
        """Peek at the accessed bits without clearing them."""
        return bool(self.rmap) and self._store.pte_accessed.item(self.pfn)

    def harvest_dirty(self) -> bool:
        """Test-and-clear the PTE dirty bits across every mapping.

        The dirtiness analogue of :meth:`harvest_accessed`: "was this
        page *written* since the last harvest" — the fresh signal the
        Section VII weighted-placement extension consumes.  The page's
        own DIRTY flag (writeback state) is left untouched.
        """
        if not self.rmap:
            return False
        column = self._store.pte_dirty
        if column.item(self.pfn):
            column[self.pfn] = False
            return True
        return False

    @property
    def mapped(self) -> bool:
        return bool(self.rmap)

    def __repr__(self) -> str:
        kind = "anon" if self.is_anon else "file"
        return f"Page(pfn={self.pfn}, node={self.node_id}, {kind}, flags={self.flags!r})"
