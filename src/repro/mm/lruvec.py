"""Per-node LRU lists, including the paper's new *promote* lists.

Linux keeps five LRU lists per node (anon/file x inactive/active, plus
unevictable).  MULTI-CLOCK "added two lists: anonymous promote and file
promote" (Section IV).  :class:`LruVec` materialises all seven as
intrusive doubly-linked lists so that activation, rotation and removal
are O(1), like the kernel's ``list_head`` juggling.

The links themselves live in the :class:`~repro.mm.pagestore.PageStore`
columns (``lru_prev``/``lru_next``/``lru_id``); the list object holds
only head/tail pfns and a count.  That keeps per-page membership a
column read and lets scans hand whole tail segments to numpy.

Conventions: the *head* of a list is where newly (re)added pages go; scans
and eviction work from the *tail*.  A page is on at most one list at a
time — the ``lru_id`` column enforces this.
"""

from __future__ import annotations

import enum
from typing import Iterator

from repro.mm.flags import PageFlags
from repro.mm.page import Page
from repro.mm.pagestore import NO_PFN, PageStore

__all__ = ["ListKind", "LruList", "LruVec"]

#: Bound once: every list insertion and removal flips it.
_LRU = int(PageFlags.LRU)


class ListKind(str, enum.Enum):
    """Which logical list a page sits on (see Figure 4 of the paper).

    The ``str`` mixin gives members ``str``'s C-level hash, so the
    ``LruVec.list_for`` lookup on every list move skips
    ``Enum.__hash__``, which is Python code.
    """

    INACTIVE = "inactive"
    ACTIVE = "active"
    PROMOTE = "promote"
    UNEVICTABLE = "unevictable"


class LruList:
    """An intrusive doubly-linked list of pages.

    A list binds to the :class:`PageStore` of the first page it sees (or
    the one passed at construction) and registers itself there; pages
    from a different store are rejected, since the link columns could
    not name them.

    ``_gen`` moves on every operation that removes or reorders entries
    already on the list (``remove`` and so ``pop_tail``,
    ``rotate_to_head``, ``add_tail``, ``PageStore.rebuild_after_scan``),
    never on a head insert: while it stands still, a tail→head prefix
    read earlier is still the list's tail→head prefix.
    """

    def __init__(
        self,
        kind: ListKind,
        is_anon: bool | None,
        store: PageStore | None = None,
    ) -> None:
        self.kind = kind
        self.is_anon = is_anon
        self._store: PageStore | None = None
        self.list_id = -1
        self._head = NO_PFN
        self._tail = NO_PFN
        self._count = 0
        self._gen = 0
        if store is not None:
            self._bind(store)

    def _bind(self, store: PageStore) -> None:
        self._store = store
        self.list_id = store.register_list(self)

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    @property
    def name(self) -> str:
        if self.is_anon is None:
            return self.kind.value
        family = "anon" if self.is_anon else "file"
        return f"{family}_{self.kind.value}"

    @property
    def head(self) -> Page | None:
        return None if self._head < 0 else self._store.pages[self._head]

    @property
    def tail(self) -> Page | None:
        return None if self._tail < 0 else self._store.pages[self._tail]

    def _admit(self, page: Page) -> int:
        """Common entry checks for add_head/add_tail; returns the pfn."""
        store = page._store
        if store.lru_id.item(page.pfn) >= 0:
            raise ValueError(f"{page!r} is already on list {page.lru.name}")
        if self._store is None:
            self._bind(store)
        elif store is not self._store:
            raise ValueError(
                f"{page!r} belongs to a different page store than list {self.name}"
            )
        return page.pfn

    def add_head(self, page: Page) -> None:
        """Insert at the MRU end."""
        pfn = self._admit(page)
        store = self._store
        store.lru_prev[pfn] = NO_PFN
        store.lru_next[pfn] = self._head
        if self._head >= 0:
            store.lru_prev[self._head] = pfn
        self._head = pfn
        if self._tail < 0:
            self._tail = pfn
        store.lru_id[pfn] = self.list_id
        flags = store.flags
        flags[pfn] = flags.item(pfn) | _LRU
        self._count += 1

    def add_tail(self, page: Page) -> None:
        """Insert at the LRU end (next in line for a scan)."""
        pfn = self._admit(page)
        store = self._store
        store.lru_next[pfn] = NO_PFN
        store.lru_prev[pfn] = self._tail
        if self._tail >= 0:
            store.lru_next[self._tail] = pfn
        self._tail = pfn
        if self._head < 0:
            self._head = pfn
        store.lru_id[pfn] = self.list_id
        flags = store.flags
        flags[pfn] = flags.item(pfn) | _LRU
        self._count += 1
        self._gen += 1

    def remove(self, page: Page) -> None:
        """Unlink ``page`` from this list in O(1)."""
        store = page._store
        pfn = page.pfn
        if store is not self._store or store.lru_id.item(pfn) != self.list_id:
            raise ValueError(f"{page!r} is not on list {self.name}")
        prev = store.lru_prev.item(pfn)
        nxt = store.lru_next.item(pfn)
        if prev >= 0:
            store.lru_next[prev] = nxt
        else:
            self._head = nxt
        if nxt >= 0:
            store.lru_prev[nxt] = prev
        else:
            self._tail = prev
        store.lru_prev[pfn] = store.lru_next[pfn] = NO_PFN
        store.lru_id[pfn] = -1
        flags = store.flags
        flags[pfn] = flags.item(pfn) & ~_LRU
        self._count -= 1
        self._gen += 1

    def pop_tail(self) -> Page | None:
        """Remove and return the LRU-end page, or None if empty."""
        if self._tail < 0:
            return None
        victim = self._store.pages[self._tail]
        self.remove(victim)
        return victim

    def rotate_to_head(self, page: Page) -> None:
        """Move ``page`` to the MRU end — the CLOCK second chance."""
        store = page._store
        pfn = page.pfn
        if store is not self._store or store.lru_id.item(pfn) != self.list_id:
            raise ValueError(f"{page!r} is not on list {self.name}")
        if self._head == pfn:
            return
        prev = store.lru_prev.item(pfn)
        nxt = store.lru_next.item(pfn)
        store.lru_next[prev] = nxt  # prev exists: pfn is not the head
        if nxt >= 0:
            store.lru_prev[nxt] = prev
        else:
            self._tail = prev
        store.lru_prev[pfn] = NO_PFN
        store.lru_next[pfn] = self._head
        store.lru_prev[self._head] = pfn
        self._head = pfn
        self._gen += 1

    def iter_from_tail(self) -> Iterator[Page]:
        """Iterate LRU→MRU.  Safe against removing the *yielded* page."""
        cursor = self._tail
        store = self._store
        while cursor >= 0:
            nxt = store.lru_prev.item(cursor)
            yield store.pages[cursor]
            cursor = nxt

    def __iter__(self) -> Iterator[Page]:
        cursor = self._head
        store = self._store
        while cursor >= 0:
            nxt = store.lru_next.item(cursor)
            yield store.pages[cursor]
            cursor = nxt


class LruVec:
    """The full set of per-node LRU lists.

    Mirrors Linux's ``lruvec`` plus the paper's two promote lists:
    anon/file x inactive/active/promote, and one unevictable list.
    """

    def __init__(self, store: PageStore | None = None) -> None:
        self._lists: dict[tuple[ListKind, bool | None], LruList] = {}
        for kind in (ListKind.INACTIVE, ListKind.ACTIVE, ListKind.PROMOTE):
            for is_anon in (True, False):
                self._lists[(kind, is_anon)] = LruList(kind, is_anon, store=store)
        self._lists[(ListKind.UNEVICTABLE, None)] = LruList(
            ListKind.UNEVICTABLE, None, store=store
        )

    def list_for(self, kind: ListKind, is_anon: bool | None = None) -> LruList:
        """Look up a list; unevictable ignores the anon/file split."""
        key = (kind, None if kind is ListKind.UNEVICTABLE else is_anon)
        return self._lists[key]

    def list_of(self, page: Page, kind: ListKind) -> LruList:
        """The list of ``kind`` matching the page's anon/file family."""
        is_anon = None if kind is ListKind.UNEVICTABLE else page.is_anon
        return self._lists[(kind, is_anon)]

    def all_lists(self) -> list[LruList]:
        return list(self._lists.values())

    def evictable_pages(self) -> int:
        """Total pages across every list except unevictable."""
        return sum(
            len(lst)
            for (kind, __), lst in self._lists.items()
            if kind is not ListKind.UNEVICTABLE
        )

    def counts(self) -> dict[str, int]:
        """Per-list page counts keyed by list name (for /proc-style stats)."""
        return {lst.name: len(lst) for lst in self._lists.values()}
