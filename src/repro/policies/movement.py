"""Shared tier-movement helpers used by MULTI-CLOCK and the baselines.

Every dynamic policy in the evaluation ultimately promotes pages into the
roomiest DRAM node and, when DRAM is full, must decide whether to make
room by demand-demoting cold DRAM pages first.  These helpers implement
that mechanism once; the *selection* of which pages deserve to move is
what differentiates the policies.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.mm.flags import PageFlags
from repro.mm.hardware import MemoryTier
from repro.mm.lruvec import ListKind
from repro.mm.migrate import MigrationOutcome
from repro.mm.numa import NumaNode
from repro.mm.page import Page
from repro.mm.system import MemorySystem
from repro.mm.vmscan import shrink_inactive_list

__all__ = [
    "roomiest",
    "promotion_destination",
    "demotion_destination",
    "promote_page",
    "demand_demote",
]

# Flag bits bound once as plain ints (see repro.mm.flags).
_PINNED = int(PageFlags.LOCKED | PageFlags.UNEVICTABLE)
_PROMOTE_REFERENCED = int(PageFlags.PROMOTE | PageFlags.REFERENCED)
_REFERENCED = int(PageFlags.REFERENCED)
_ACTIVE = int(PageFlags.ACTIVE)
_MIGRATED = MigrationOutcome.MIGRATED


def roomiest(nodes: Iterable[NumaNode]) -> NumaNode | None:
    """The node with the most free frames, or None for an empty list."""
    return max(nodes, key=lambda node: node.free, default=None)


def owner_socket(system: MemorySystem, page: Page) -> int | None:
    """The home socket of the process mapping ``page`` (first mapping)."""
    for pid, __ in page.rmap:
        process = system.processes.get(pid)
        if process is not None:
            return process.home_socket
    return None


def promotion_destination(
    system: MemorySystem, page: Page | None = None
) -> NumaNode | None:
    """Where promotions land: a DRAM node, preferring the owner's socket.

    NUMA awareness (Table I): promoting a page across the interconnect
    would trade PM latency for remote-DRAM latency, so the owner's local
    DRAM node wins whenever it exists, even when full: demand demotion
    then happens there rather than spilling the hot page to a remote
    socket.  Among equals, most free frames — so a local node with room
    beats a full one.
    """
    socket = owner_socket(system, page) if page is not None else None
    if socket is not None:
        local = system.nodes_in_tier(MemoryTier.DRAM, socket)
        if local:
            return roomiest(local)
    return roomiest(system.dram_nodes())


def demotion_destination(system: MemorySystem, node: NumaNode) -> NumaNode | None:
    """Where ``node`` demotes to: one tier down, same socket first."""
    lower = node.tier.next_lower()
    if lower is None:
        return None
    local = roomiest(system.nodes_in_tier(lower, node.socket))
    if local is not None and local.free > 0:
        return local
    return roomiest(system.nodes_in_tier(lower))


def promote_page(
    system: MemorySystem,
    page: Page,
    *,
    make_room: bool = True,
    place: ListKind = ListKind.ACTIVE,
) -> bool:
    """Migrate ``page`` up to DRAM, optionally demand-demoting for room.

    ``make_room=False`` is the *conservative* mode (AutoTiering-CPM,
    which "migrate[s] pages to the best NUMA node" only when space
    exists); ``make_room=True`` reproduces Section III-C's "promotions
    from the lower tier result in immediate page demotions".
    """
    store = page._store
    pfn = page.pfn
    if system._node_is_dram[store.node.item(pfn)]:
        return False
    dest = promotion_destination(system, page)
    if dest is None:
        return False
    if dest.free < 1:
        if not make_room or not demand_demote(system, dest, pages=1):
            return False
    if system.migrator.migrate_with_retry(page, dest) is not _MIGRATED:
        return False
    flags = store.flags
    word = flags.item(pfn) & ~_PROMOTE_REFERENCED
    flags[pfn] = (word | _ACTIVE) if place is ListKind.ACTIVE else (word & ~_ACTIVE)
    dest.lruvec.list_of(page, place).add_head(page)
    return True


def demand_demote(system: MemorySystem, dram_node: NumaNode, pages: int) -> bool:
    """Free ``pages`` frames on ``dram_node`` by demoting cold pages down.

    First asks the PFRA scan for unreferenced inactive-tail pages; if the
    scan finds none (everything recently touched), forces the inactive
    tail out anyway so promotions cannot deadlock against a full tier.
    """
    dest = demotion_destination(system, dram_node)
    if dest is None or dest.free < 1:
        return False
    freed = 0
    for is_anon in (True, False):
        if freed >= pages:
            break
        result = shrink_inactive_list(
            system, dram_node, is_anon,
            target_free=pages - freed, budget=64, demote_dest=dest,
            scanner="demand",
        )
        freed += result.demoted + result.evicted
    if freed >= pages:
        return True
    for is_anon in (True, False):
        inactive = dram_node.lruvec.list_for(ListKind.INACTIVE, is_anon)
        for page in inactive.iter_from_tail():
            if freed >= pages:
                return True
            if page.test(_PINNED):
                continue
            if system.migrator.migrate_with_retry(page, dest).ok:
                page.clear(_REFERENCED)
                dest.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
                freed += 1
    return freed >= pages
