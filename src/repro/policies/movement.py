"""Shared tier-movement helpers used by MULTI-CLOCK and the baselines.

Every dynamic policy in the evaluation promotes a page the same way,
through :func:`promote_page`: into the roomiest DRAM node, preferring
the owner's socket.  Policies differ in which pages they select and in
how they make room when that node is full, which each states once as
its ``make_room`` (see :class:`~repro.policies.base.TieringPolicy`):
:func:`demand_demote` by default, nothing for AutoTiering-CPM and
AutoNUMA, history-cold demotion for AutoTiering-OPM.  Every demotion is
one :func:`repro.mm.vmscan.demote_page` step.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.mm.flags import PageFlags
from repro.mm.hardware import MemoryTier
from repro.mm.lruvec import ListKind
from repro.mm.migrate import MigrationOutcome
from repro.mm.numa import NumaNode
from repro.mm.page import Page
from repro.mm.system import MemorySystem
from repro.mm.vmscan import demote_page, shrink_inactive_list

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
    make_room: Callable[[NumaNode], bool] | None,
    place: ListKind = ListKind.ACTIVE,
) -> bool:
    """Migrate a PM ``page`` up to DRAM; False for a DRAM page.

    The destination is worked out once.  When it has no free frame,
    ``make_room(dest)`` is asked to free one there and the promotion
    fails unless it does; ``make_room=None`` is the *conservative* mode
    (AutoTiering-CPM, which "migrate[s] pages to the best NUMA node" only
    when space exists), and :func:`demand_demote` reproduces Section
    III-C's "promotions from the lower tier result in immediate page
    demotions".
    """
    store = page._store
    pfn = page.pfn
    if system._node_is_dram[store.node.item(pfn)]:
        return False
    dest = promotion_destination(system, page)
    if dest is None:
        return False
    if dest.free < 1 and (make_room is None or not make_room(dest)):
        return False
    if system.migrator.migrate_with_retry(page, dest) is not _MIGRATED:
        return False
    flags = store.flags
    word = flags.item(pfn) & ~_PROMOTE_REFERENCED
    flags[pfn] = (word | _ACTIVE) if place is ListKind.ACTIVE else (word & ~_ACTIVE)
    dest.lruvec.list_of(page, place).add_head(page)
    return True


def demand_demote(system: MemorySystem, dram_node: NumaNode) -> bool:
    """Free one frame on ``dram_node`` by demoting a cold page down.

    First asks the PFRA scan for an unreferenced inactive-tail page; if
    the scan finds none (everything recently touched), forces the first
    unpinned inactive-tail page out anyway so promotions cannot deadlock
    against a full tier.
    """
    dest = demotion_destination(system, dram_node)
    if dest is None or dest.free < 1:
        return False
    for is_anon in (True, False):
        result = shrink_inactive_list(
            system, dram_node, is_anon,
            target_free=1, budget=64, demote_dest=dest, scanner="demand",
        )
        if result.demoted + result.evicted:
            return True
    for is_anon in (True, False):
        inactive = dram_node.lruvec.list_for(ListKind.INACTIVE, is_anon)
        for page in inactive.iter_from_tail():
            if not page.test(_PINNED) and demote_page(system, page, dest):
                return True
    return False
