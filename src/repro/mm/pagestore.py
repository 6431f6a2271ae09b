"""Struct-of-arrays page state — the packed ``struct page`` columns.

The paper's pitch is that MULTI-CLOCK reuses ``struct page`` state for
zero space overhead; the reproduction's analogue is this store.  All the
per-page words the hot paths read — tier/node id, the flag word, the
harvested PTE reference/dirty bits, age timestamps, the intrusive LRU
prev/next links — live here as dense pfn-indexed numpy columns, one
:class:`PageStore` per simulated machine.  The :class:`~repro.mm.page.Page`
object survives as a thin *view* over its row (identity-stable: exactly
one ``Page`` per pfn, held in :attr:`PageStore.pages`), which keeps the
cold paths ergonomic while touch/scan/harvest loops
run as vectorized column sweeps.

Pfns are allocated densely per store — per machine, not per process —
which is what makes the columns indexable and makes pfn sequences
reproducible no matter how many machines were built earlier in the
process (the old module-level counter made them order-dependent).

Columns are reallocated on growth (new pages from faults or swap
refaults), so hot loops that hoist a column into a local must re-hoist
after any call that can allocate — the same discipline the batched touch
path already applies to the per-node latency tables.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.mm.lruvec import LruList
    from repro.mm.page import Page

__all__ = ["PageStore", "default_store", "NO_PFN"]

NO_PFN = -1
"""Column sentinel for "no page": absent LRU link, empty list head/tail."""

_INITIAL_CAPACITY = 1024


class PageStore:
    """Per-machine struct-of-arrays backing store for page state.

    Column layout (all indexed by pfn):

    ==================  ========  ===========================================
    ``node``            int32     backing NUMA node id (-1 before adoption)
    ``flags``           int64     the ``PageFlags`` word
    ``is_anon``         bool      anon vs file-backed (fixed at creation)
    ``born_ns``         int64     allocation timestamp
    ``last_promoted``   int64     last promotion commit (-1 never)
    ``lru_id``          int16     owning :class:`LruList` id, -1 off-list
    ``lru_prev``        int64     neighbour pfn toward the list head, -1 none
    ``lru_next``        int64     neighbour pfn toward the list tail, -1 none
    ``pte_accessed``    bool      harvested OR of the mapping PTEs' accessed
    ``pte_dirty``       bool      harvested OR of the mapping PTEs' dirty
    ``mapcount``        int32     mappings of the page: ``len(Page.rmap)``
    ``awaiting_ns``     int64     promotion time awaiting first re-access, -1
    ``memcg_id``        int32     charging :class:`MemCgroup` id, -1 uncharged
    ``hint_history``    uint8     AutoTiering-OPM's n-bit access history, 0
    ==================  ========  ===========================================

    Rows are never reused, so a row's ``hint_history`` is 0 from
    adoption until the hint scanner and hint faults write it.

    ``pte_accessed``/``pte_dirty`` keep the *page-level* reference signal
    the scans consume (``harvest_accessed`` is an OR-and-clear across the
    rmap); when the last mapping goes away both bits are cleared, so an
    unmapped page never reads as accessed, matching the historical
    per-PTE behaviour.
    """

    def __init__(self, capacity: int = _INITIAL_CAPACITY) -> None:
        capacity = max(16, capacity)
        self._capacity = capacity
        self.node = np.full(capacity, -1, dtype=np.int32)
        self.flags = np.zeros(capacity, dtype=np.int64)
        self.is_anon = np.zeros(capacity, dtype=bool)
        self.born_ns = np.zeros(capacity, dtype=np.int64)
        self.last_promoted = np.full(capacity, -1, dtype=np.int64)
        self.lru_id = np.full(capacity, -1, dtype=np.int16)
        self.lru_prev = np.full(capacity, NO_PFN, dtype=np.int64)
        self.lru_next = np.full(capacity, NO_PFN, dtype=np.int64)
        self.pte_accessed = np.zeros(capacity, dtype=bool)
        self.pte_dirty = np.zeros(capacity, dtype=bool)
        self.mapcount = np.zeros(capacity, dtype=np.int32)
        self.awaiting_ns = np.full(capacity, -1, dtype=np.int64)
        self.memcg_id = np.full(capacity, -1, dtype=np.int32)
        self.hint_history = np.zeros(capacity, dtype=np.uint8)
        #: identity registry: pages[pfn] is THE view object for that pfn.
        self.pages: list[Page] = []
        #: registered lists; a page's ``lru_id`` indexes this.
        self.lists: list[LruList] = []

    def __len__(self) -> int:
        return len(self.pages)

    # -- page lifecycle ------------------------------------------------------

    def adopt(self, page: "Page", node_id: int, is_anon: bool, born_ns: int) -> int:
        """Assign the next dense pfn to ``page`` and initialise its row."""
        pfn = len(self.pages)
        if pfn >= self._capacity:
            self._grow()
        self.pages.append(page)
        self.node[pfn] = node_id
        self.is_anon[pfn] = is_anon
        self.born_ns[pfn] = born_ns
        return pfn

    def page_at(self, pfn: int) -> "Page":
        """The canonical view object for ``pfn``."""
        return self.pages[pfn]

    def _grow(self) -> None:
        new_capacity = self._capacity * 2
        for name in (
            "node", "flags", "is_anon", "born_ns", "last_promoted",
            "lru_id", "lru_prev", "lru_next", "pte_accessed", "pte_dirty",
            "mapcount", "awaiting_ns", "memcg_id", "hint_history",
        ):
            old = getattr(self, name)
            grown = np.empty(new_capacity, dtype=old.dtype)
            grown[: self._capacity] = old
            grown[self._capacity:] = _FILL[name]
            setattr(self, name, grown)
        self._capacity = new_capacity

    # -- list registry -------------------------------------------------------

    def register_list(self, lst: "LruList") -> int:
        """Give a list a dense id so ``lru_id`` can name it."""
        list_id = len(self.lists)
        if list_id >= np.iinfo(np.int16).max:
            raise RuntimeError("too many LRU lists registered on one store")
        self.lists.append(lst)
        return list_id

    # -- vectorized list surgery --------------------------------------------

    def walk_tail(
        self, lst: "LruList", count: int, start: int | None = None
    ) -> np.ndarray:
        """``count`` pfns of ``lst`` in tail→head scan order, from
        ``start`` (default: the tail).  The caller keeps ``count`` within
        the entries left between ``start`` and the head."""
        return _walk(self.lru_prev.item, lst._tail if start is None else start, count)

    def walk_head(self, lst: "LruList", count: int) -> np.ndarray:
        """``count`` pfns of ``lst`` in head→tail order, the twin of
        :meth:`walk_tail`.  The caller keeps ``count`` within the list."""
        return _walk(self.lru_next.item, lst._head, count)

    def relink_chain(self, order: np.ndarray) -> None:
        """Rewrite the prev/next links so ``order`` (tail→head) is a chain."""
        if len(order) == 0:
            return
        self.lru_prev[order[:-1]] = order[1:]
        self.lru_prev[int(order[-1])] = NO_PFN
        self.lru_next[order[1:]] = order[:-1]
        self.lru_next[int(order[0])] = NO_PFN

    def rebuild_after_scan(
        self,
        lst: "LruList",
        survivors: np.ndarray,
        rest_tail: int,
        removed: int,
    ) -> None:
        """Install the post-scan order of a budgeted tail scan.

        The scan visited a tail segment, removed ``removed`` pages from
        the list and rotated the rest to the head in visit order
        (``survivors``, tail→head).  ``rest_tail`` is the first unvisited
        pfn — its segment keeps its internal links — or :data:`NO_PFN`
        when the whole list was visited.
        """
        if rest_tail < 0:
            if len(survivors) == 0:
                lst._head = lst._tail = NO_PFN
            else:
                self.relink_chain(survivors)
                lst._tail = int(survivors[0])
                lst._head = int(survivors[-1])
        else:
            self.lru_next[rest_tail] = NO_PFN
            lst._tail = rest_tail
            if len(survivors):
                old_head = lst._head
                self.lru_prev[survivors[:-1]] = survivors[1:]
                self.lru_prev[int(survivors[-1])] = NO_PFN
                self.lru_next[survivors[1:]] = survivors[:-1]
                self.lru_next[int(survivors[0])] = old_head
                self.lru_prev[old_head] = int(survivors[0])
                lst._head = int(survivors[-1])
        lst._count -= removed
        lst._gen += 1

    def prepend_head_block(self, lst: "LruList", block: np.ndarray, lru_flag: int) -> None:
        """Batch ``add_head`` of ``block`` pfns, first element added first.

        Equivalent to calling ``lst.add_head(page)`` for each block entry
        in order: the last entry ends up at the head.  The caller is
        responsible for having detached the pages from their old list.
        """
        if len(block) == 0:
            return
        old_head = lst._head
        self.lru_prev[block[:-1]] = block[1:]
        self.lru_prev[int(block[-1])] = NO_PFN
        self.lru_next[block[1:]] = block[:-1]
        self.lru_next[int(block[0])] = old_head
        if old_head >= 0:
            self.lru_prev[old_head] = int(block[0])
        else:
            lst._tail = int(block[0])
        lst._head = int(block[-1])
        self.lru_id[block] = lst.list_id
        self.flags[block] |= lru_flag
        lst._count += len(block)


def _walk(step, cursor: int, count: int) -> np.ndarray:
    """``count`` pfns from ``cursor``, following ``step`` (a link column's
    ``item``)."""
    out = [0] * count
    for i in range(count):
        out[i] = cursor
        cursor = step(cursor)
    return np.array(out, dtype=np.int64)


_FILL = {
    "node": -1,
    "flags": 0,
    "is_anon": False,
    "born_ns": 0,
    "last_promoted": -1,
    "lru_id": -1,
    "lru_prev": NO_PFN,
    "lru_next": NO_PFN,
    "pte_accessed": False,
    "pte_dirty": False,
    "mapcount": 0,
    "awaiting_ns": -1,
    "memcg_id": -1,
    "hint_history": 0,
}


_default_store: PageStore | None = None


def default_store() -> PageStore:
    """The fallback store for pages built without a machine.

    Unit tests construct bare ``Page(0)`` objects; those live here.  A
    machine's pages always live in its own :class:`PageStore`, so pfn
    sequences per machine stay dense and order-independent.
    """
    global _default_store
    if _default_store is None:
        _default_store = PageStore()
    return _default_store
