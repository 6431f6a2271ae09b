"""First-touch page allocation with tier fallback.

In every tiering system the paper evaluates, pages are "born in" the DRAM
tier and allocation falls back to PM once DRAM runs low (Section II-A).
:class:`PageAllocator` implements that gfp-style fallback walk and tells
the caller when a node dropped below its low watermark so the appropriate
daemon (kswapd / demotion) can be woken.
"""

from __future__ import annotations

from repro.mm.hardware import MemoryTier
from repro.mm.numa import NumaNode
from repro.mm.page import Page
from repro.mm.watermarks import PressureLevel

__all__ = ["AllocationResult", "PageAllocator"]

_NONE = PressureLevel.NONE
_DRAM = MemoryTier.DRAM


class AllocationResult:
    """Outcome of one allocation: the page plus pressure signals.

    A plain ``__slots__`` class: one is built per fault, and a frozen
    dataclass costs four times as much to construct.
    """

    __slots__ = ("page", "node", "fell_back", "pressured_nodes")

    def __init__(
        self,
        page: Page,
        node: NumaNode,
        fell_back: bool,
        pressured_nodes: tuple[int, ...],
    ) -> None:
        self.page = page
        self.node = node
        self.fell_back = fell_back
        self.pressured_nodes = pressured_nodes


class PageAllocator:
    """Walks the node fallback order: DRAM tier first, then PM.

    A node is *preferred* while its free count stays above the min
    watermark; once every preferred node is exhausted the walk continues
    into lower tiers, and as a last resort takes any node with a free
    frame (eating into the reserve below ``min``, like atomic allocations
    do in Linux).
    """

    def __init__(self, nodes: list[NumaNode]) -> None:
        if not nodes:
            raise ValueError("allocator needs at least one node")
        self._nodes = sorted(nodes, key=lambda n: (n.tier, n.node_id))
        # The walk order depends only on the caller's home socket and
        # static node attributes; cache it per socket (the fault path
        # allocates once per cold page and must not re-sort every time).
        self._walk_cache: dict[int, list[NumaNode]] = {}
        # Tracepoint sink, installed by Machine.enable_tracing.
        self.trace = None

    @property
    def fallback_order(self) -> list[NumaNode]:
        return list(self._nodes)

    def occupancy(self) -> str:
        """One-line per-node occupancy, for OOM reports.

        Shows which node refused the allocation and why — full, or
        frames offline after a fault-injected capacity loss.
        """
        parts = []
        for node in self._nodes:
            part = f"node{node.node_id}/{node.tier.name} {node.used_pages}/{node.capacity_pages} used"
            if node.offline_pages:
                part += f" ({node.offline_pages} offline)"
            parts.append(part)
        return "; ".join(parts)

    def allocate(
        self, *, is_anon: bool, born_ns: int = 0, home_socket: int = 0
    ) -> AllocationResult:
        """Allocate one page, or raise MemoryError if all nodes are full.

        Within each tier, nodes on the caller's home socket are preferred
        (first-touch locality, as Linux's default mempolicy does).  The
        walk reads each node's cached ``free`` and ``level``; neither is
        derived here.
        """
        walk = self._walk_cache.get(home_socket)
        if walk is None:
            walk = sorted(
                self._nodes, key=lambda n: (n.tier, n.socket != home_socket, n.node_id)
            )
            self._walk_cache[home_socket] = walk
        pressured: list[int] = []
        chosen: NumaNode | None = None
        for node in walk:
            if node.level is not _NONE:
                pressured.append(node.node_id)
            # min_pages > 0, so headroom above it implies a free frame.
            if chosen is None and node.free > node.watermarks.min_pages:
                chosen = node
        if chosen is None:
            # Reserve walk: any frame at all, highest tier first.
            for node in walk:
                if node.free > 0:
                    chosen = node
                    break
            else:
                raise MemoryError("all memory nodes are full")
        fell_back = chosen.tier is not _DRAM
        page = chosen.allocate_page(is_anon=is_anon, born_ns=born_ns)
        if chosen.level is not _NONE and chosen.node_id not in pressured:
            pressured.append(chosen.node_id)
        if self.trace is not None:
            self.trace.trace_mm_page_alloc(chosen.node_id, page.pfn, is_anon, fell_back)
        return AllocationResult(page, chosen, fell_back, tuple(pressured))
