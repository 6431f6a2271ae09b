"""NUMA nodes — the simulator's ``pglist_data``.

The paper's prototype tags DAX-KMEM hot-plugged persistent memory nodes
with a new flag in ``pglist_data`` so MULTI-CLOCK can tell the DRAM tier
("all the DRAM nodes") from the PM tier ("all the PM nodes").  Here the
tag is the node's :class:`~repro.mm.hardware.MemoryTier`.
"""

from __future__ import annotations

from repro.mm.hardware import MemoryTier
from repro.mm.lruvec import LruVec
from repro.mm.page import Page
from repro.mm.pagestore import PageStore
from repro.mm.watermarks import PressureLevel, Watermarks, compute_watermarks

__all__ = ["NumaNode"]


class NumaNode:
    """One bank of physical memory plus its reclaim state."""

    def __init__(
        self,
        node_id: int,
        tier: MemoryTier,
        capacity_pages: int,
        watermarks: Watermarks,
        socket: int = 0,
        store: PageStore | None = None,
    ) -> None:
        if capacity_pages <= 0:
            raise ValueError(f"node {node_id} needs positive capacity")
        self.node_id = node_id
        self.tier = tier
        self.socket = socket
        self.capacity_pages = capacity_pages
        self.watermarks = watermarks
        self.store = store
        self.lruvec = LruVec(store=store)
        self._used_pages = 0
        self._offline_pages = 0
        #: Free frames and their watermark level as plain values.  They
        #: change only where a frame count does, so :meth:`_recount` runs
        #: there and every reader (the allocator's walk on each fault,
        #: the migration checks) reads an attribute.
        self.free = capacity_pages
        self.level = watermarks.pressure(capacity_pages)

    @classmethod
    def create(
        cls,
        node_id: int,
        tier: MemoryTier,
        capacity_pages: int,
        total_pages: int,
        socket: int = 0,
        store: PageStore | None = None,
    ) -> "NumaNode":
        """Build a node with watermarks derived from machine-wide capacity."""
        marks = compute_watermarks(capacity_pages, total_pages)
        return cls(node_id, tier, capacity_pages, marks, socket, store)

    @property
    def is_pm(self) -> bool:
        """The DAX-KMEM "this node is persistent memory" tag."""
        return self.tier is MemoryTier.PM

    @property
    def used_pages(self) -> int:
        return self._used_pages

    @property
    def offline_pages(self) -> int:
        """Frames taken offline (fault injection / simulated hot-remove)."""
        return self._offline_pages

    @property
    def free_pages(self) -> int:
        return self.free

    def _recount(self) -> None:
        """Re-derive ``free`` and ``level`` after a frame count changed."""
        free = self.capacity_pages - self._used_pages - self._offline_pages
        self.free = free
        self.level = self.watermarks.pressure(free)

    def take_offline(self, frames: int) -> int:
        """Remove up to ``frames`` free frames from service.

        Models memory hot-remove (or a failing DIMM rank): only free
        frames can leave — occupied ones would need migrating off first,
        which the pressure this creates will drive.  Returns the number
        actually taken; the caller passes it back to :meth:`bring_online`.
        """
        if frames < 0:
            raise ValueError("cannot offline a negative number of frames")
        taken = min(frames, self.free)
        self._offline_pages += taken
        self._recount()
        return taken

    def bring_online(self, frames: int) -> None:
        """Return previously offlined frames to service."""
        if frames < 0 or frames > self._offline_pages:
            raise ValueError(
                f"node {self.node_id} has {self._offline_pages} frames offline, "
                f"cannot bring {frames} online"
            )
        self._offline_pages -= frames
        self._recount()

    def pressure(self) -> PressureLevel:
        return self.level

    def can_allocate(self, pages: int = 1) -> bool:
        return self.free >= pages

    def allocate_page(self, *, is_anon: bool, born_ns: int = 0) -> Page:
        """Take one frame from this node and wrap it in a fresh page.

        The caller is responsible for putting the page on an LRU list;
        raises MemoryError if the node is full (callers should check
        :meth:`can_allocate` and fall back to another node first).
        """
        if self.free < 1:
            raise MemoryError(f"node {self.node_id} has no free frames")
        self._used_pages += 1
        self._recount()
        return Page(self.node_id, is_anon=is_anon, born_ns=born_ns, store=self.store)

    def adopt_page(self, page: Page, source: "NumaNode") -> None:
        """Move ``page``'s frame from ``source`` into this node (migration).

        Both nodes' counts and levels change here.  The page must already
        be off any LRU list; the migration engine re-links it on this
        node's lists afterwards.
        """
        if self.free < 1:
            raise MemoryError(f"node {self.node_id} has no free frames")
        if page.lru is not None:
            raise ValueError("page must leave its LRU list before moving nodes")
        if source._used_pages == 0:
            raise RuntimeError(f"node {source.node_id} frame accounting underflow")
        source._used_pages -= 1
        source._recount()
        self._used_pages += 1
        self._recount()
        page.node_id = self.node_id

    def release_frame(self, page: Page) -> None:
        """Give a page's frame back (free or migrate-away path)."""
        if page.node_id != self.node_id:
            raise ValueError(
                f"page lives on node {page.node_id}, not node {self.node_id}"
            )
        if page.lru is not None:
            raise ValueError("page must leave its LRU list before freeing")
        if self._used_pages == 0:
            raise RuntimeError(f"node {self.node_id} frame accounting underflow")
        self._used_pages -= 1
        self._recount()

    def __repr__(self) -> str:
        return (
            f"NumaNode(id={self.node_id}, tier={self.tier.name}, "
            f"used={self._used_pages}/{self.capacity_pages})"
        )
