"""The assembled memory-management substrate handed to tiering policies.

:class:`MemorySystem` plays the role of the kernel MM layer: it owns the
NUMA nodes, the allocator, the migration engine, the backing store and
the processes, and it implements the access path every simulated memory
reference takes (fault handling, accessed-bit updates, latency charging).
Tiering *policy* — which lists pages move between and when they migrate —
is delegated to a :class:`~repro.policies.base.TieringPolicy` attached by
the machine.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING

from repro.mm.address_space import MemoryRegion, Process
from repro.mm.alloc import PageAllocator
from repro.mm.flags import PageFlags
from repro.mm.hardware import HardwareModel, MemoryTier
from repro.mm.memcg import ProcessKilledError
from repro.mm.migrate import MigrationEngine
from repro.mm.numa import NumaNode
from repro.mm.page import Page
from repro.mm.page_table import UNMAPPED
from repro.mm.pagestore import PageStore
from repro.mm.swap import BackingStore
from repro.sim.config import SimulationConfig
from repro.sim.stats import StatsBook
from repro.sim.vclock import VirtualClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.policies.base import TieringPolicy

__all__ = [
    "MemorySystem",
    "OutOfMemoryError",
    "ProcessKilledError",
    "OOM_RECLAIM_RETRIES",
]

OOM_RECLAIM_RETRIES = 4
"""Direct-reclaim passes the touch path absorbs before the OOM killer
fires — the analogue of ``__alloc_pages_slowpath`` looping while reclaim
keeps making progress."""


# Flag bits bound once as plain ints: the access path sets DIRTY on
# every write, and the fault and eviction paths test UNEVICTABLE.
_DIRTY = int(PageFlags.DIRTY)
_UNEVICTABLE = int(PageFlags.UNEVICTABLE)


class OutOfMemoryError(RuntimeError):
    """Raised when reclaim cannot free a frame — the OOM killer fired."""


class MemorySystem:
    """Kernel-side state of one simulated hybrid-memory machine."""

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config.validated()
        self.clock = VirtualClock()
        self.stats = StatsBook()
        self._remote_mult = self.config.latency.remote_socket_multiplier
        # The struct-of-arrays page store: every page this machine ever
        # allocates lives here, with a dense per-machine pfn.
        self.pagestore = PageStore()
        self.nodes: dict[int, NumaNode] = {}
        total = config.total_pages
        node_id = 0
        for i, pages in enumerate(config.dram_pages):
            self.nodes[node_id] = NumaNode.create(
                node_id, MemoryTier.DRAM, pages, total,
                socket=i % config.sockets, store=self.pagestore,
            )
            node_id += 1
        for i, pages in enumerate(config.pm_pages):
            self.nodes[node_id] = NumaNode.create(
                node_id, MemoryTier.PM, pages, total,
                socket=i % config.sockets, store=self.pagestore,
            )
            node_id += 1
        # Node ids are dense from 0 and a node's tier and socket never
        # change, so the access path reads them from flat lists indexed
        # by the page's node column.
        self._node_tier = [node.tier for node in self.nodes.values()]
        self._node_socket = [node.socket for node in self.nodes.values()]
        self._node_is_dram = [tier is MemoryTier.DRAM for tier in self._node_tier]
        # For the same reason the per-tier node sets the movement helpers
        # pick from are built once; only free-frame counts change.
        self._tier_nodes = {
            tier: tuple(node for node in self.nodes.values() if node.tier is tier)
            for tier in MemoryTier
        }
        self._socket_tier_nodes = {
            (tier, socket): tuple(node for node in nodes if node.socket == socket)
            for tier, nodes in self._tier_nodes.items()
            for socket in range(config.sockets)
        }
        self.hardware = HardwareModel(config.latency, self._node_tier)
        # The live per-node latency table: fault-plan windows rescale it
        # in place, so holding the lists sees every rescale.
        self._read_ns = self.hardware.read_ns
        self._write_ns = self.hardware.write_ns
        self._hint_fault_ns = self.hardware.hint_fault_ns()
        self.allocator = PageAllocator(list(self.nodes.values()))
        self.migrator = MigrationEngine(self.nodes, self.hardware, self.clock, self.stats)
        self.backing = BackingStore(config.swap_pages)
        self.processes: dict[int, Process] = {}
        self._policy: TieringPolicy | None = None
        #: Whether the attached policy keeps the default ``charge_access``
        #: (pure latency-table math), which the access paths then inline.
        self.inline_charge = True
        # Fig 8/9 instrumentation: promotions per window and whether each
        # promoted page gets re-accessed from DRAM afterwards.
        self.stats.make_series("promotions_window", config.stats_window_s)
        self.stats.make_series("demotions_window", config.stats_window_s)
        self.stats.make_series("promoted_total_window", config.stats_window_s)
        self.stats.make_series("promoted_reaccessed_window", config.stats_window_s)
        # Promotions awaiting their first re-access live in the store's
        # ``awaiting_ns`` column (-1 = not waiting); the count lets hot
        # loops skip the column probe entirely when nothing is pending.
        self._awaiting_count = 0
        # Fig 9 counts a promotion as "re-accessed" only when the access
        # lands within one scan interval of the promotion: the paper's
        # metric is "pages that have been promoted in the last scan, get
        # re-referenced again from the DRAM" — promptly, not eventually.
        self._reaccess_horizon_ns = int(config.daemons.kpromoted_interval_s * 1e9)
        self.migrator.on_promote = self._note_promotion
        # Interned counter handles for the access path: one attribute
        # increment per event instead of a string-keyed dict update.
        # Interning them here also keeps snapshot() key sets identical
        # between the per-access and batched drivers.
        stats = self.stats
        self._c_accesses_total = stats.counter("accesses.total")
        self._c_accesses_dram = stats.counter("accesses.dram")
        self._c_accesses_pm = stats.counter("accesses.pm")
        self._c_accesses_remote = stats.counter("accesses.remote")
        self._c_faults_minor = stats.counter("faults.minor")
        self._c_faults_major = stats.counter("faults.major")
        self._c_faults_hint = stats.counter("faults.hint")
        self._c_alloc_pages = stats.counter("alloc.pages")
        self._c_promoted_reaccessed = stats.counter("promoted.reaccessed")
        self._c_oom_stalls = stats.counter("vm.oom_stalls")
        # Fault injector handle; None means no faults are armed and every
        # resilience hook stays on its zero-cost path.
        self.faults = None
        # Tracepoint sink; None means tracing is compiled out and every
        # emission site is a single failed identity check.
        self.trace = None
        # Metrics registry; None means metrics are compiled out — the
        # same nop discipline as tracing, enforced at every site below.
        self.metrics = None
        # Memcg controller; None means per-tenant accounting is compiled
        # out and OOM aborts the whole machine (the historical behaviour).
        self.memcg = None

    # -- wiring -------------------------------------------------------------

    @property
    def policy(self) -> "TieringPolicy":
        if self._policy is None:
            raise RuntimeError("no tiering policy attached yet")
        return self._policy

    def attach_policy(self, policy: "TieringPolicy") -> None:
        if self._policy is not None:
            raise RuntimeError("a policy is already attached")
        from repro.policies.base import TieringPolicy

        self._policy = policy
        self.inline_charge = (
            type(policy).charge_access is TieringPolicy.charge_access
        )

    def create_process(self, name: str = "", home_socket: int = 0) -> Process:
        if home_socket >= self.config.sockets:
            raise ValueError(
                f"home_socket {home_socket} but machine has {self.config.sockets} sockets"
            )
        process = Process(name, home_socket)
        self.processes[process.pid] = process
        return process

    # -- node queries ---------------------------------------------------------

    def nodes_in_tier(
        self, tier: MemoryTier, socket: int | None = None
    ) -> tuple[NumaNode, ...]:
        """``tier``'s nodes in node-id order, or only those on ``socket``."""
        if socket is None:
            return self._tier_nodes[tier]
        return self._socket_tier_nodes.get((tier, socket), ())

    def dram_nodes(self) -> tuple[NumaNode, ...]:
        return self._tier_nodes[MemoryTier.DRAM]

    def pm_nodes(self) -> tuple[NumaNode, ...]:
        return self._tier_nodes[MemoryTier.PM]

    def tier_of(self, page: Page) -> MemoryTier:
        return self._node_tier[page._store.node.item(page.pfn)]

    def used_pages(self) -> int:
        return sum(node.used_pages for node in self.nodes.values())

    # -- the access path ------------------------------------------------------

    def touch(
        self, process: Process, vpage: int, *, is_write: bool = False, lines: int = 1
    ) -> int:
        """Simulate one memory reference; returns nanoseconds charged.

        Handles, in order: page faults (first touch or refault from the
        backing store), hint page faults on poisoned PTEs, the hardware
        accessed/dirty bit update, the tier-dependent access latency
        (scaled by ``lines``, the cache lines the operation touches in
        this page), and — for supervised regions — the inline
        ``mark_page_accessed()`` call of Section III-A.

        This is the one definition of an access; the driver
        :meth:`~repro.machine.Machine.touch_batch` calls it once per
        fault, hint fault that may move a page, or supervised access
        (every access when the policy charges its own) and charges the
        rest in place, a hint fault that moves no page included.  One
        bisect over the region starts finds both the page's ``v2p`` slot
        and, on a page fault, its region; a vpage outside every region
        raises ``LookupError`` (a SIGSEGV).
        """
        table = process.page_table
        starts = table._start_list
        idx = bisect_right(starts, vpage) - 1
        if idx < 0 or vpage >= table._end_list[idx]:
            raise LookupError(f"pid {process.pid}: vpage {vpage} hits no mapped region")
        slot = table._base_list[idx] + vpage - starts[idx]
        pfn = table.v2p.item(slot)
        charged = 0
        if pfn < 0:
            if pfn == UNMAPPED:
                pfn, charged = self._page_fault(process, process._regions[idx], vpage, slot)
            else:
                pfn = -2 - pfn
                table.v2p[slot] = pfn
                hint_ns = self._hint_fault_ns
                clock = self.clock
                clock._now_ns += hint_ns
                clock._app_ns += hint_ns
                charged = hint_ns
                self._c_faults_hint.n += 1
                self._policy.on_hint_fault(self.pagestore.pages[pfn])
        store = self.pagestore
        store.pte_accessed[pfn] = True
        if is_write:
            store.pte_dirty[pfn] = True
            store.flags[pfn] |= _DIRTY
        nid = store.node.item(pfn)
        if self.inline_charge:
            ns = self._write_ns if is_write else self._read_ns
            access_ns = lines * ns[nid]
        else:
            access_ns = self._policy.charge_access(store.pages[pfn], is_write, lines)
        if self._node_socket[nid] != process.home_socket:
            access_ns = int(access_ns * self._remote_mult)
            self._c_accesses_remote.n += 1
        clock = self.clock
        clock._now_ns += access_ns
        clock._app_ns += access_ns
        charged += access_ns
        self._c_accesses_total.n += 1
        if self._node_is_dram[nid]:
            self._c_accesses_dram.n += 1
        else:
            self._c_accesses_pm.n += 1
        if process.supervised_regions and process._regions[idx].supervised:
            self._policy.mark_page_accessed(store.pages[pfn])
        if self._awaiting_count:
            self._note_reaccess(pfn, clock._now_ns)
        return charged

    def _note_promotion(self, page: Page) -> None:
        """Record a promotion and start watching for its first re-access."""
        self.stats.record("promoted_total_window", self.clock.now_ns)
        column = self.pagestore.awaiting_ns
        if column[page.pfn] < 0:
            self._awaiting_count += 1
        column[page.pfn] = self.clock.now_ns

    def _note_reaccess(self, pfn: int, at: int) -> None:
        """An access to ``pfn`` that ended at virtual time ``at``.

        The first access after a promotion counts toward Fig 9's
        numerator, but only if it arrives within the re-access horizon.
        Callers skip it while nothing awaits a re-access."""
        column = self.pagestore.awaiting_ns
        promoted_at = column.item(pfn)
        if promoted_at < 0:
            return
        column[pfn] = -1
        self._awaiting_count -= 1
        if self.metrics is not None:
            self.metrics.reaccess_delay.record(at - promoted_at)
        if at - promoted_at <= self._reaccess_horizon_ns:
            self._c_promoted_reaccessed.n += 1
            self.stats.record("promoted_reaccessed_window", promoted_at)

    def _page_fault(
        self, process: Process, region: MemoryRegion, vpage: int, slot: int
    ) -> tuple[int, int]:
        """Populate a missing translation: first touch or major refault."""
        latency = self.hardware.latency
        if region.is_anon and self.backing.is_swapped(process.pid, vpage):
            self.backing.swap_in(process.pid, vpage)
            charged = latency.swap_in_ns
            self._c_faults_major.n += 1
        else:
            charged = latency.minor_fault_ns
            self._c_faults_minor.n += 1
        clock = self.clock
        clock._now_ns += charged
        clock._app_ns += charged
        if self.memcg is not None:
            self.memcg.try_charge(process)
        page = self._allocate_page(region, process.home_socket, process)
        process.page_table._map_at(slot, vpage, page)
        if self.memcg is not None:
            self.memcg.commit_charge(page, process)
        if region.mlocked:
            page.set(_UNEVICTABLE)
        self._policy.on_page_allocated(page)
        return page.pfn, charged

    def _allocate_page(
        self,
        region: MemoryRegion,
        home_socket: int = 0,
        process: Process | None = None,
    ) -> Page:
        """Allocate with fallback, degrading gracefully under exhaustion.

        Allocation failure never escapes as a raw ``MemoryError``: each
        failed walk stalls the faulting access in synchronous direct
        reclaim (counted in ``vm.oom_stalls``) and retries, for up to
        :data:`OOM_RECLAIM_RETRIES` passes while reclaim keeps making
        progress.  Only when reclaim frees nothing does the OOM killer
        fire, with the per-node occupancy in the message.  With memcg
        accounting armed the killer picks a victim group instead of
        aborting the machine, so ``_oom`` may *return* after freeing the
        victim's frames and the walk retries.
        """
        result = None
        for __ in range(1 + OOM_RECLAIM_RETRIES):
            try:
                result = self.allocator.allocate(
                    is_anon=region.is_anon, born_ns=self.clock._now_ns,
                    home_socket=home_socket,
                )
                break
            except MemoryError:
                self.stats.inc("alloc.direct_reclaim")
                self._c_oom_stalls.n += 1
                stall_start_ns = self.clock.now_ns
                freed = self._policy.direct_reclaim()
                if self.metrics is not None:
                    self.metrics.reclaim_stall.record(
                        self.clock.now_ns - stall_start_ns
                    )
                if freed <= 0:
                    self._oom("reclaim freed nothing", process)
        if result is None:
            # Reclaim stalled through every retry.  Without memcg this
            # raises; with a victim killed it returns and the freed
            # frames satisfy one final walk.
            self._oom(
                f"reclaim kept stalling ({OOM_RECLAIM_RETRIES} retries)", process
            )
            try:
                result = self.allocator.allocate(
                    is_anon=region.is_anon, born_ns=self.clock.now_ns,
                    home_socket=home_socket,
                )
            except MemoryError:
                raise OutOfMemoryError(
                    "allocation failed even after an OOM kill — "
                    f"{self.allocator.occupancy()}"
                ) from None
        if result.fell_back:
            self.stats.inc("alloc.fallback_pm")
        if result.pressured_nodes:
            self._policy.on_memory_pressure(result.pressured_nodes)
        self._c_alloc_pages.n += 1
        return result.page

    def _oom(self, why: str, process: Process | None = None) -> None:
        """Fire the OOM killer.

        Historical (no-memcg) behaviour: count the kill and raise
        :class:`OutOfMemoryError` with the per-node occupancy — the whole
        run dies.  With memcg accounting armed, select a victim group
        (the over-limit or largest-footprint tenant), unmap its pages so
        the frames return to the free lists, and *return* so the caller
        can retry — unless the faulting process itself was the victim,
        in which case :class:`ProcessKilledError` kills just that tenant.
        """
        self.stats.inc("oom.kills")
        if self.memcg is not None:
            victim = self.memcg.select_victim(process)
            if victim is not None:
                pid = self.memcg.victim_pid(victim)
                freed = self.memcg.kill(victim)
                self.stats.inc("oom.pages_freed", freed)
                if self.trace is not None:
                    self.trace.trace_oom_kill(why, pid=pid)
                if (process is not None
                        and self.memcg.group_of(process.pid) is victim):
                    raise ProcessKilledError(
                        f"OOM killed group {victim.name!r} (pid {pid}, "
                        f"{freed} pages freed) and {why}"
                    ) from None
                return
        if self.trace is not None:
            self.trace.trace_oom_kill(why)
        raise OutOfMemoryError(
            f"allocation failed and {why} — {self.allocator.occupancy()}"
        ) from None

    def discard_region(self, process: Process, region: MemoryRegion) -> int:
        """Free every resident page of a region (munmap / MADV_FREE).

        Anonymous pages are dropped without touching swap — their
        contents die with the mapping, as when an application frees a
        buffer.  Returns the number of pages freed.
        """
        freed = 0
        table = process.page_table
        base = table._slot(region.start_vpage)
        # Each vpage has its own slot, so unmapping one leaves the others'
        # entries as read here.
        entries = table.v2p[base:base + region.n_pages].tolist()
        for vpage, entry in enumerate(entries, region.start_vpage):
            if entry == UNMAPPED:
                if region.is_anon and self.backing.is_swapped(process.pid, vpage):
                    self.backing.swap_in(process.pid, vpage)  # slot released
                continue
            page = self.pagestore.pages[table.unmap(vpage)]
            if page.mapped:
                continue  # shared file page still mapped elsewhere
            if page.lru is not None:
                page.lru.remove(page)
            page.clear(_UNEVICTABLE)
            if self.memcg is not None:
                self.memcg.uncharge(page)
            self.nodes[page.node_id].release_frame(page)
            if self.trace is not None:
                self.trace.trace_mm_page_free(page.node_id, page.pfn, "discard")
            freed += 1
        self.stats.inc("mm.region_discards")
        self.stats.inc("mm.pages_discarded", freed)
        return freed

    # -- eviction to the backing store ---------------------------------------

    def unmap_and_evict(self, page: Page) -> int:
        """Push a lowest-tier page out to block storage; returns ns charged.

        Anonymous mappings go to swap; file pages are written back (if
        dirty) or dropped.  All PTEs are removed so the next access
        refaults.  Raises MemoryError if the swap area is full (the OOM
        precondition).
        """
        if page.test(_UNEVICTABLE):
            raise ValueError("unevictable pages cannot be evicted")
        latency = self.hardware.latency
        charged = 0
        if page.is_anon:
            # Reserve swap space up front so a full swap fails the whole
            # eviction atomically — never leaving a half-unmapped page
            # whose contents would be silently dropped.
            needed = len(page.rmap)
            if self.backing.swapped_pages + needed > self.backing.swap_capacity_pages:
                raise MemoryError("swap space exhausted")
        for pid, vpage in list(page.rmap):
            self.processes[pid].page_table.unmap(vpage)
            if page.is_anon:
                self.backing.swap_out(pid, vpage)
        if page.is_anon or page.test(_DIRTY):
            self.clock.advance_system(latency.swap_out_ns)
            charged += latency.swap_out_ns
        if not page.is_anon:
            self.backing.writeback_file()
        if page.lru is not None:
            page.lru.remove(page)
        if self.memcg is not None:
            self.memcg.uncharge(page)
        self.nodes[page.node_id].release_frame(page)
        self.stats.inc("reclaim.evictions")
        if self.trace is not None:
            self.trace.trace_mm_vmscan_evict(page.node_id, page.pfn, page.is_anon)
        return charged
