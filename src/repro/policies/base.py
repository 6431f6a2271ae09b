"""Tiering-policy interface, registry, and Table-I feature metadata.

A :class:`TieringPolicy` owns every *decision* the kernel substrate
delegates: where freshly faulted pages go, what a supervised access does
to list state, which daemons run, and how reclaim behaves.  The default
implementations reproduce vanilla Linux PFRA behaviour so each baseline
only overrides what the corresponding paper system actually changed.

The :class:`PolicyFeatures` records mirror the columns of the paper's
Table I, so the table can be regenerated from code (see
``benchmarks/test_table1_features.py``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.mm.flags import PageFlags
from repro.mm.lruvec import ListKind
from repro.mm.numa import NumaNode
from repro.mm.page import Page
from repro.mm.system import MemorySystem
from repro.mm.vmscan import deactivate_excess_active, mark_page_accessed, shrink_inactive_list
from repro.policies import movement
from repro.sim.events import Daemon

__all__ = ["PolicyFeatures", "TieringPolicy", "register_policy", "create_policy", "policy_names"]

# Flag bits bound once as plain ints (see repro.mm.flags): the
# allocation hook tests UNEVICTABLE on every fault.
_UNEVICTABLE = int(PageFlags.UNEVICTABLE)
_PINNED = int(PageFlags.LOCKED | PageFlags.UNEVICTABLE)
_INACTIVE = ListKind.INACTIVE


@dataclass(frozen=True)
class PolicyFeatures:
    """One row of the paper's Table I."""

    tiering: str
    page_access_tracking: str
    selection_promotion: str
    selection_demotion: str
    numa_aware: str
    space_overhead: str
    generality: str
    evaluation: str
    usability_limitation: str
    key_insight: str


class TieringPolicy(abc.ABC):
    """Base class for every tiering mechanism in the evaluation."""

    name: str = "abstract"
    features: PolicyFeatures | None = None

    def __init__(self, system: MemorySystem) -> None:
        self.system = system
        system.attach_policy(self)

    # -- hooks the substrate calls -----------------------------------------

    def daemons(self) -> list[Daemon]:
        """Background daemons this policy wants scheduled."""
        return []

    def on_page_allocated(self, page: Page) -> None:
        """Place a freshly faulted page; default: inactive-list head."""
        store = page._store
        pfn = page.pfn
        lruvec = self.system.nodes[store.node.item(pfn)].lruvec
        if store.flags.item(pfn) & _UNEVICTABLE:
            lruvec.list_for(ListKind.UNEVICTABLE).add_head(page)
            return
        lruvec.list_for(_INACTIVE, store.is_anon.item(pfn)).add_head(page)

    def mark_page_accessed(self, page: Page) -> None:
        """Supervised-access state update; default: vanilla CLOCK ladder."""
        mark_page_accessed(self.system, page)

    def observe_scan(self, page: Page) -> None:
        """Called for every page a kpromoted scan examines.

        Policies that need per-scan-window observations beyond the
        accessed bit (e.g. the §VII dirtiness weighting) hook in here;
        the default costs nothing.
        """

    def on_hint_fault(self, page: Page) -> None:
        """Called when an access to ``page`` trips a poisoned translation
        (hint-fault trackers) and the hint fault is an event (see
        :meth:`quiet_hint_nodes`).  An override starts with
        :meth:`note_hint_faults` for ``page``, then places it."""

    def note_hint_faults(self, pfns: Sequence[int]) -> None:
        """The bookkeeping of one hint fault on each of ``pfns`` (a list
        or an int64 array): all that :meth:`on_hint_fault` does for a
        page on a quiet node."""

    def quiet_hint_nodes(self) -> Sequence[bool] | None:
        """Per node id, whether a hint fault on a page there moves no page.

        The access driver charges such a hint fault in place (un-poison,
        ``hint_fault_ns``, ``faults.hint`` and :meth:`note_hint_faults`)
        instead of stepping it through ``MemorySystem.touch``.  It asks
        again after every event and daemon wakeup, so the answer need
        hold only until the next one.  None, the default, makes every
        hint fault an event.
        """
        return None

    # -- tier movement (DemotionDaemon, KPromoted, the policies' own scans) --

    def demotion_destination(self, node: NumaNode) -> NumaNode | None:
        """Where ``node`` demotes to: the roomiest node one tier down."""
        return movement.demotion_destination(self.system, node)

    def promote_page(self, page: Page) -> bool:
        """Migrate a selected PM page up to DRAM (edge 13), calling
        :meth:`make_room` when the destination has no free frame."""
        return movement.promote_page(self.system, page, make_room=self.make_room)

    def make_room(self, dest: NumaNode) -> bool:
        """Free one frame on the full DRAM node ``dest`` for a promotion.

        Default: demand-demote a cold page — "promotions from the lower
        tier result in immediate page demotions from the higher tier"
        (Section III-C).  A policy that promotes only into free DRAM sets
        ``make_room = None``.
        """
        return movement.demand_demote(self.system, dest)

    def charge_access(self, page: Page, is_write: bool, lines: int = 1) -> int:
        """Latency of one access touching ``lines`` cache lines.

        Default: the backing tier's per-line latency times the line count.
        """
        return lines * self.system.hardware.access_ns(self.system.tier_of(page), is_write)

    def on_memory_pressure(self, node_ids: tuple[int, ...]) -> None:
        """Allocation observed nodes below their low watermark."""

    def direct_reclaim(self) -> int:
        """Synchronous reclaim when allocation finds no frame anywhere.

        Default: evict from the lowest tier's inactive lists, escalating
        to ignore reference bits — Linux's rising scan priority — so that
        progress is guaranteed while swap has room.  Returns pages freed.
        """
        freed = 0
        for node in reversed(self.system.allocator.fallback_order):
            for is_anon in (True, False):
                result = shrink_inactive_list(
                    self.system, node, is_anon, target_free=32, budget=256, demote_dest=None
                )
                freed += result.evicted
            if freed:
                return freed
        # Escalation: fill inactive lists from active, then force-evict.
        for node in reversed(self.system.allocator.fallback_order):
            for is_anon in (True, False):
                deactivate_excess_active(self.system, node, is_anon, budget=256)
            freed += self._force_evict(node, 32)
            if freed:
                return freed
        return freed

    def _force_evict(self, node: NumaNode, target: int) -> int:
        """Evict from the tail regardless of reference state."""
        freed = 0
        for kind in (ListKind.INACTIVE, ListKind.ACTIVE, ListKind.PROMOTE):
            for is_anon in (True, False):
                lst = node.lruvec.list_for(kind, is_anon)
                for page in lst.iter_from_tail():
                    if freed >= target:
                        return freed
                    if page.test(_PINNED):
                        continue
                    try:
                        self.system.unmap_and_evict(page)
                    except MemoryError:
                        return freed
                    freed += 1
        return freed


_REGISTRY: dict[str, Callable[[MemorySystem], TieringPolicy]] = {}


def register_policy(name: str) -> Callable[[type[TieringPolicy]], type[TieringPolicy]]:
    """Class decorator adding a policy to the by-name registry."""

    def decorate(cls: type[TieringPolicy]) -> type[TieringPolicy]:
        if name in _REGISTRY:
            raise ValueError(f"policy {name!r} is already registered")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorate


def create_policy(name: str, system: MemorySystem) -> TieringPolicy:
    """Instantiate a registered policy and attach it to ``system``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown policy {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return factory(system)


def policy_names() -> list[str]:
    return sorted(_REGISTRY)
