"""Page migration between tiers — the simulator's ``migrate_pages()``.

Linux's mechanism allocates a destination frame, copies the contents and
fixes every mapping that refers to the page.  Here the page object *is*
the content, so migration re-homes it to the destination node, but the
engine still charges the full copy+fixup latency and refuses the cases
the kernel refuses (locked pages, unevictable pages, no destination
frame), because those refusals drive the paper's promote-list fallback
("if that is not possible — for instance, the page is locked — then it is
moved to the active list").
"""

from __future__ import annotations

import enum
from typing import Callable

from repro.mm.flags import PageFlags
from repro.mm.hardware import HardwareModel
from repro.mm.numa import NumaNode
from repro.mm.page import Page
from repro.sim.stats import StatsBook
from repro.sim.vclock import VirtualClock

__all__ = ["MigrationEngine", "MigrationOutcome", "MAX_MIGRATE_ATTEMPTS"]

MAX_MIGRATE_ATTEMPTS = 10
"""Kernel ``migrate_pages()`` retries a failing page up to 10 times."""

#: Bound once: every attempt reads them against the page's flag word.
_LOCKED = int(PageFlags.LOCKED)
_UNEVICTABLE = int(PageFlags.UNEVICTABLE)


class MigrationOutcome(enum.Enum):
    """Why a migration attempt succeeded or failed."""

    MIGRATED = "migrated"
    PAGE_LOCKED = "page_locked"
    PAGE_UNEVICTABLE = "page_unevictable"
    DEST_FULL = "dest_full"
    SAME_NODE = "same_node"
    COPY_FAILED = "copy_failed"

    @property
    def ok(self) -> bool:
        return self is MigrationOutcome.MIGRATED


class MigrationEngine:
    """Moves pages between NUMA nodes, charging copy costs to the clock."""

    def __init__(
        self,
        nodes: dict[int, NumaNode],
        hardware: HardwareModel,
        clock: VirtualClock,
        stats: StatsBook,
    ) -> None:
        self._nodes = nodes
        self._hardware = hardware
        self._clock = clock
        self._stats = stats
        self._c_attempts = stats.counter("migrate.attempts")
        self._c_failed_locked = stats.counter("migrate.failed_locked")
        self._c_failed_unevictable = stats.counter("migrate.failed_unevictable")
        self._c_failed_dest_full = stats.counter("migrate.failed_dest_full")
        self._c_failed_copy = stats.counter("migrate.failed_copy")
        self._c_retries = stats.counter("migrate.retries")
        self._c_retry_succeeded = stats.counter("migrate.retry_succeeded")
        self._c_retries_exhausted = stats.counter("migrate.retries_exhausted")
        self._c_promotions = stats.counter("migrate.promotions")
        self._c_demotions = stats.counter("migrate.demotions")
        self._c_lateral = stats.counter("migrate.lateral")
        self.on_promote: "Callable[[Page], None] | None" = None
        # Fault-injection hook: when set, it is consulted on every copy
        # attempt and a True return fails the copy (COPY_FAILED).
        self.copy_fault_hook: "Callable[[Page, NumaNode], bool] | None" = None
        self._backoff_base_ns = hardware.latency.migrate_backoff_ns
        self._copy_ns = hardware.migrate_ns()
        # Tracepoint sink, installed by Machine.enable_tracing.
        self.trace = None
        # Metrics registry, installed by Machine.enable_metrics.
        self.metrics = None
        # Memcg controller, installed by Machine.enable_memcg: a migrated
        # page keeps its charge but moves it between per-node RSS books.
        self.memcg = None

    def node_of(self, page: Page) -> NumaNode:
        return self._nodes[page.node_id]

    def migrate(self, page: Page, dest: NumaNode) -> MigrationOutcome:
        """Attempt to move ``page`` onto ``dest``.

        On success the page is detached from any LRU list and accounted to
        the destination node; the caller must re-link it onto the list the
        policy wants.  On failure the page is left exactly where it was.
        """
        source = self._nodes[page._store.node.item(page.pfn)]
        outcome = self._attempt(page, source, dest)
        if self.trace is not None:
            if dest.tier < source.tier:
                direction = "promote"
            elif dest.tier > source.tier:
                direction = "demote"
            else:
                direction = "lateral"
            self.trace.trace_mm_migrate_pages(
                source.node_id, page.pfn, dest.node_id, direction, outcome.value
            )
        return outcome

    def _attempt(
        self, page: Page, source: NumaNode, dest: NumaNode
    ) -> MigrationOutcome:
        self._c_attempts.n += 1
        if dest.node_id == source.node_id:
            return MigrationOutcome.SAME_NODE
        store = page._store
        pfn = page.pfn
        flags = store.flags.item(pfn)
        if flags & _LOCKED:
            self._c_failed_locked.n += 1
            return MigrationOutcome.PAGE_LOCKED
        if flags & _UNEVICTABLE:
            self._c_failed_unevictable.n += 1
            return MigrationOutcome.PAGE_UNEVICTABLE
        if dest.free < 1:
            self._c_failed_dest_full.n += 1
            return MigrationOutcome.DEST_FULL
        if self.copy_fault_hook is not None and self.copy_fault_hook(page, dest):
            # The copy ran and was torn down: charge the full copy cost
            # (as the kernel does for a failed migrate attempt) but leave
            # the page exactly where it was.
            self._c_failed_copy.n += 1
            self._clock.advance_system(self._copy_ns)
            return MigrationOutcome.COPY_FAILED

        list_id = store.lru_id.item(pfn)
        if list_id >= 0:
            store.lists[list_id].remove(page)
        dest.adopt_page(page, source)
        if self.memcg is not None:
            self.memcg.note_migrated(page, source.node_id, dest.node_id)
        clock = self._clock
        clock._now_ns += self._copy_ns
        clock._system_ns += self._copy_ns
        self._account_direction(source, dest, page)
        return MigrationOutcome.MIGRATED

    def migrate_with_retry(
        self,
        page: Page,
        dest: NumaNode,
        *,
        max_attempts: int = MAX_MIGRATE_ATTEMPTS,
    ) -> MigrationOutcome:
        """Kernel-style bounded retry around :meth:`migrate`.

        ``migrate_pages()`` retries a page whose copy failed with
        ``-EAGAIN`` up to 10 times; we add exponential *virtual-time*
        backoff between attempts (standing in for the cond_resched +
        writeback waits of the real retry loop).  Only ``COPY_FAILED``
        is retried, and only an open ``CopyFailures`` window produces
        it.  Every other outcome is final for this pass, as
        ``-ENOMEM`` (``DEST_FULL``) and a locked, unevictable or
        same-node page are in the kernel, so a run with no copy failing
        makes exactly one attempt and charges no backoff.
        """
        outcome = self.migrate(page, dest)
        backoff_ns = self._backoff_base_ns
        attempts = 1
        while outcome is MigrationOutcome.COPY_FAILED and attempts < max_attempts:
            self._clock.advance_system(backoff_ns)
            if self.metrics is not None:
                self.metrics.migrate_backoff.record(backoff_ns)
            backoff_ns = min(backoff_ns * 2, 512 * self._backoff_base_ns)
            self._c_retries.n += 1
            outcome = self.migrate(page, dest)
            attempts += 1
        if outcome.ok and attempts > 1:
            self._c_retry_succeeded.n += 1
        elif outcome is MigrationOutcome.COPY_FAILED:
            self._c_retries_exhausted.n += 1
        return outcome

    def _account_direction(self, source: NumaNode, dest: NumaNode, page: Page) -> None:
        now = self._clock._now_ns
        if dest.tier < source.tier:
            self._c_promotions.n += 1
            page._store.last_promoted[page.pfn] = now
            series = self._stats.series.get("promotions_window")
            if series is not None:
                series.record(now)
            if self.metrics is not None:
                # PagePromote -> commit latency; a no-op for pages that
                # were promoted without passing through a promote list.
                self.metrics.note_promote_commit(page.pfn, now)
            if self.on_promote is not None:
                self.on_promote(page)
        elif dest.tier > source.tier:
            self._c_demotions.n += 1
            series = self._stats.series.get("demotions_window")
            if series is not None:
                series.record(now)
            if self.metrics is not None:
                self.metrics.demotion_age.record(now - page.born_ns)
        else:
            self._c_lateral.n += 1
