"""The assembled simulated machine: substrate + policy + daemons.

:class:`Machine` is the top-level object users construct: it builds the
memory system from a :class:`~repro.sim.config.SimulationConfig`, attaches
a tiering policy by registry name, registers the policy's daemons on the
virtual-clock scheduler, and exposes the access path workloads drive.

Two access paths are offered.  :meth:`Machine.touch` is the simple
per-reference call; :meth:`Machine.touch_batch` drives a whole access
stream through an inlined copy of the hot path — same semantics, same
counters, same virtual times, but an order of magnitude less Python
call overhead.  :meth:`Machine.touch_batch_array` goes further for
numeric single-process streams: when the stream hits the common case
(resident pages, no poisons, one unsupervised region, the default
``charge_access``) whole access vectors are resolved and charged with a
handful of numpy gathers against the struct-of-arrays page store,
dropping to the scalar loop only around faults, daemon deadlines and policy
overrides.  ``tests/perf/test_touch_batch_equivalence.py`` holds all
paths bit-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.mm.address_space import Process
from repro.mm.flags import PageFlags
from repro.mm.system import MemorySystem
from repro.policies.base import TieringPolicy, create_policy
from repro.sim.config import SimulationConfig
from repro.sim.events import DaemonScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.base import PageAccess

__all__ = ["Machine"]


class Machine:
    """One simulated hybrid-memory host running one tiering policy."""

    def __init__(self, config: SimulationConfig, policy: str = "multiclock") -> None:
        self.system = MemorySystem(config)
        self.policy: TieringPolicy = create_policy(policy, self.system)
        self.scheduler = DaemonScheduler(
            self.system.clock, wakeup_cost_ns=config.latency.daemon_wakeup_ns
        )
        for daemon in self.policy.daemons():
            self.scheduler.register(daemon)

    @property
    def config(self) -> SimulationConfig:
        return self.system.config

    @property
    def clock(self):
        return self.system.clock

    @property
    def stats(self):
        return self.system.stats

    def create_process(self, name: str = "", home_socket: int = 0) -> Process:
        return self.system.create_process(name, home_socket)

    def install_faults(self, plan) -> "object":
        """Arm a :class:`~repro.faults.plan.FaultPlan` on this machine.

        Returns the live :class:`~repro.faults.injector.FaultInjector`.
        Must be called before driving accesses; a machine accepts at most
        one plan for its lifetime.
        """
        from repro.faults.injector import install_faults

        return install_faults(self, plan)

    def enable_tracing(self, *, capacity_per_node: int | None = None) -> "object":
        """Install a :class:`~repro.trace.tracer.Tracer` on this machine.

        Idempotent-hostile on purpose (one tracer per machine, like one
        perf session per buffer): enabling twice raises.  The tracer's
        counter baseline is snapshotted here so the auditor compares
        deltas even when tracing starts mid-run.  Returns the tracer.
        """
        from repro.trace.tracer import DEFAULT_RING_CAPACITY, Tracer

        system = self.system
        if system.trace is not None:
            raise RuntimeError("tracing is already enabled on this machine")
        # `is None`, not `or`: an explicit 0 must reach the Tracer's own
        # validation instead of silently meaning "default capacity".
        tracer = Tracer(
            system.clock,
            capacity_per_node=(
                DEFAULT_RING_CAPACITY if capacity_per_node is None else capacity_per_node
            ),
        )
        tracer.baseline = system.stats.snapshot()
        tracer.baseline["backing.swap_outs"] = system.backing.swap_outs
        tracer.baseline["backing.swap_ins"] = system.backing.swap_ins
        system.trace = tracer
        system.allocator.trace = tracer
        system.backing.trace = tracer
        system.migrator.trace = tracer
        return tracer

    def enable_metrics(
        self,
        *,
        sample_interval_s: float | None = None,
        window_seconds: float | None = None,
    ) -> "object":
        """Install a :class:`~repro.metrics.registry.MetricsRegistry`.

        Arms the per-node gauge sampler (a ``cost_free`` daemon — it
        observes, so it charges nothing to the virtual clock) and wires
        the histogram sinks onto the system, the migration engine and the
        backing store.  One registry per machine; enabling twice raises.
        Defaults: sampling at the kswapd cadence, windows at the paper's
        ``stats_window_s``.  Returns the registry.
        """
        from repro.metrics.registry import MetricsRegistry
        from repro.metrics.sampler import VmstatSampler
        from repro.sim.events import Daemon

        system = self.system
        if system.metrics is not None:
            raise RuntimeError("metrics are already enabled on this machine")
        config = system.config
        interval = (
            config.daemons.kswapd_interval_s
            if sample_interval_s is None
            else sample_interval_s
        )
        registry = MetricsRegistry(
            system,
            window_seconds=(
                config.stats_window_s if window_seconds is None else window_seconds
            ),
            sample_interval_s=interval,
        )
        sampler = VmstatSampler(system, registry)
        self.scheduler.register(
            Daemon(sampler.name, interval, sampler.run, cost_free=True)
        )
        system.metrics = registry
        system.migrator.metrics = registry
        system.backing.metrics = registry
        return registry

    def enable_memcg(self) -> "object":
        """Install a :class:`~repro.mm.memcg.MemcgController`.

        Arms per-tenant accounting: pages are charged to their faulting
        process's group, limits drive targeted + proportional reclaim,
        and the OOM killer selects a victim group instead of aborting
        the machine.  Armed but with no limits set, runs stay
        bit-identical to unarmed runs (the controller only maintains its
        own books).  One controller per machine; enabling twice raises.
        Returns the controller.
        """
        from repro.mm.memcg import MemcgController

        system = self.system
        if system.memcg is not None:
            raise RuntimeError("memcg accounting is already enabled on this machine")
        controller = MemcgController(system)
        system.memcg = controller
        system.migrator.memcg = controller
        return controller

    def install_invariant_checker(
        self, interval_s: float = 0.005, *, strict: bool = False
    ) -> "object":
        """Register a periodic ``CONFIG_DEBUG_VM`` sweep on the scheduler.

        Returns the :class:`~repro.mm.debug.InvariantChecker` so callers
        can also sweep on demand and read ``last_violations``.
        """
        from repro.mm.debug import InvariantChecker
        from repro.sim.events import Daemon

        checker = InvariantChecker(self.system, strict=strict)
        self.scheduler.register(Daemon(checker.name, interval_s, checker.run))
        return checker

    def touch(
        self, process: Process, vpage: int, *, is_write: bool = False, lines: int = 1
    ) -> int:
        """One memory reference plus any daemon work that came due."""
        system = self.system
        charged = system.touch(process, vpage, is_write=is_write, lines=lines)
        scheduler = self.scheduler
        if scheduler.next_deadline_ns <= system.clock._now_ns:
            scheduler.run_due()
        return charged

    def touch_batch(self, accesses: "Iterable[PageAccess]") -> tuple[int, int]:
        """Drive a stream of accesses through the inlined hot path.

        Returns ``(accesses, operations)`` where ``operations`` counts
        the stream's ``op_boundary`` markers.  Equivalent to calling
        :meth:`touch` once per access — faults, hint faults, daemon
        wakeups, counters and clock advance identically — but the common
        case (page resident, PTE clean) runs without entering
        ``MemorySystem.touch``: the PTE/flag updates, latency charge,
        counter bumps and scheduler deadline check are all inlined here
        against hoisted page-store columns.
        """
        system = self.system
        scheduler = self.scheduler
        clock = system.clock
        stats = system.stats
        policy = system.policy
        run_due = scheduler.run_due
        slow_touch = system.touch
        store = system.pagestore
        reaccess_horizon = system._reaccess_horizon_ns
        c_reaccessed = system._c_promoted_reaccessed
        record_reaccess = stats.series["promoted_reaccessed_window"].record
        metrics = system.metrics
        record_reaccess_delay = (
            metrics.reaccess_delay.record if metrics is not None else None
        )
        mark_accessed = policy.mark_page_accessed
        # A policy that keeps the default charge_access (pure latency-table
        # math) gets it inlined below.
        inline_charge = system.inline_charge
        charge_access = policy.charge_access
        read_ns, write_ns = system.hardware.access_tables()
        remote_mult = system.config.latency.remote_socket_multiplier
        multi_socket = system.config.sockets > 1
        # Per-node facts are flat vectors indexed by the page's node column.
        node_tier = system._node_tier
        node_read_ns = [read_ns[tier] for tier in node_tier]
        node_write_ns = [write_ns[tier] for tier in node_tier]
        # With a fault plan armed, daemon wakeups may rescale tier latency
        # (PmSlowdown windows), so the hoisted per-node tables must be
        # rebuilt after every run_due(); without faults they are constant.
        faults_live = system.faults is not None
        node_is_dram = system._node_is_dram
        node_socket = system._node_socket
        # Page-store columns, hoisted.  Store growth (a fault allocating
        # past capacity) reallocates every column, so these are re-hoisted
        # after any excursion that can allocate — slow_touch and run_due —
        # the same discipline as the latency tables above.
        col_acc = store.pte_accessed
        col_dirty = store.pte_dirty
        col_flags = store.flags
        col_node = store.node
        col_await = store.awaiting_ns
        c_total = stats.counter("accesses.total")
        c_dram = stats.counter("accesses.dram")
        c_pm = stats.counter("accesses.pm")
        c_remote = stats.counter("accesses.remote")
        dirty_bit = int(PageFlags.DIRTY)
        n_accesses = 0
        n_operations = 0
        # Virtual time and the access counters are accumulated in locals
        # and flushed to the clock / StatsBook objects only when code
        # outside this loop might observe them (slow touch, daemon
        # wakeups, policy callbacks) and once at the end.
        # mark_page_accessed implementations read neither, so the pure
        # fast path is a handful of local integer adds per access.
        now = clock._now_ns
        app_accum = 0
        acc_total = acc_dram = acc_pm = acc_remote = 0
        next_deadline = scheduler.next_deadline_ns
        # Per-process and per-region state, re-hoisted on change.  Regions
        # are never unmapped, so a cached [start, end) range stays valid.
        cur_process: Process | None = None
        home_socket = -1
        reg_start = reg_end = 0  # empty range: first access misses the cache
        reg_supervised = False
        for access in accesses:
            process = access.process
            vpage = access.vpage
            is_write = access.is_write
            n_accesses += 1
            n_operations += access.op_boundary
            if process is not cur_process:
                cur_process = process
                # PageTable.lookup is a trivial wrapper around this dict;
                # go straight to it to spare a call per access.
                pt_dict = process.page_table._entries
                home_socket = process.home_socket
                reg_start = reg_end = 0
                reg_supervised = False
            try:
                pte = pt_dict[vpage]
            except KeyError:
                pte = None
            if pte is None or pte.poisoned:
                # Fault / hint-fault path: rare, delegate to the full
                # implementation rather than duplicating it here.
                clock._now_ns = now
                clock._app_ns += app_accum
                c_total.n += acc_total
                c_dram.n += acc_dram
                c_pm.n += acc_pm
                c_remote.n += acc_remote
                app_accum = acc_total = acc_dram = acc_pm = acc_remote = 0
                slow_touch(process, vpage, is_write=is_write, lines=access.lines)
                now = clock._now_ns
                if next_deadline <= now:
                    run_due()
                    now = clock._now_ns
                    next_deadline = scheduler.next_deadline_ns
                    if faults_live:
                        node_read_ns = [read_ns[tier] for tier in node_tier]
                        node_write_ns = [write_ns[tier] for tier in node_tier]
                col_acc = store.pte_accessed
                col_dirty = store.pte_dirty
                col_flags = store.flags
                col_node = store.node
                col_await = store.awaiting_ns
                continue
            # Only supervision is read from the region, so a process with
            # no supervised region skips the lookup altogether.
            if not reg_start <= vpage < reg_end and process.supervised_regions:
                region = process.region_for(vpage)
                reg_start = region.start_vpage
                reg_end = region.end_vpage
                reg_supervised = region.supervised
            page = pte.page
            pfn = page.pfn
            col_acc[pfn] = True
            if is_write:
                col_dirty[pfn] = True
                col_flags[pfn] |= dirty_bit
            nid = col_node[pfn]
            if inline_charge:
                access_ns = access.lines * (
                    node_write_ns[nid] if is_write else node_read_ns[nid]
                )
            else:
                clock._now_ns = now
                clock._app_ns += app_accum
                app_accum = 0
                access_ns = charge_access(page, is_write, access.lines)
                now = clock._now_ns
            if multi_socket and node_socket[nid] != home_socket:
                access_ns = int(access_ns * remote_mult)
                acc_remote += 1
            now += access_ns
            app_accum += access_ns
            acc_total += 1
            if node_is_dram[nid]:
                acc_dram += 1
            else:
                acc_pm += 1
            if reg_supervised:
                mark_accessed(page)
            if system._awaiting_count:
                # Inlined MemorySystem._note_reaccess against the local time.
                promoted_at = col_await[pfn]
                if promoted_at >= 0:
                    col_await[pfn] = -1
                    system._awaiting_count -= 1
                    promoted_at = int(promoted_at)
                    if record_reaccess_delay is not None:
                        record_reaccess_delay(now - promoted_at)
                    if now - promoted_at <= reaccess_horizon:
                        c_reaccessed.n += 1
                        record_reaccess(promoted_at)
            if next_deadline <= now:
                clock._now_ns = now
                clock._app_ns += app_accum
                c_total.n += acc_total
                c_dram.n += acc_dram
                c_pm.n += acc_pm
                c_remote.n += acc_remote
                app_accum = acc_total = acc_dram = acc_pm = acc_remote = 0
                run_due()
                now = clock._now_ns
                next_deadline = scheduler.next_deadline_ns
                if faults_live:
                    node_read_ns = [read_ns[tier] for tier in node_tier]
                    node_write_ns = [write_ns[tier] for tier in node_tier]
                col_acc = store.pte_accessed
                col_dirty = store.pte_dirty
                col_flags = store.flags
                col_node = store.node
                col_await = store.awaiting_ns
        clock._now_ns = now
        clock._app_ns += app_accum
        c_total.n += acc_total
        c_dram.n += acc_dram
        c_pm.n += acc_pm
        c_remote.n += acc_remote
        return n_accesses, n_operations

    def touch_batch_array(
        self,
        process: Process,
        batches: "Iterable[tuple[Iterable[int], Iterable[bool]]]",
        *,
        lines: int = 1,
    ) -> tuple[int, int]:
        """Drive a single-process numeric access stream through the hot path.

        ``batches`` yields ``(vpages, writes)`` pairs (numpy arrays or
        sequences); every access marks an operation boundary and touches
        ``lines`` cache lines — the shape of every synthetic workload
        stream.  Equivalent to :meth:`touch_batch` over the
        :class:`~repro.workloads.base.PageAccess` objects those batches
        would emit — faults, daemon wakeups, counters and clock advance
        identically — but without materialising any access objects.

        When the common case holds — every page of the batch resident in
        a dense page table with no poisoned PTEs, one unsupervised region
        covering the batch, and a policy keeping the default
        ``charge_access`` — whole batches are processed as
        column sweeps: one ``v2p`` gather resolves the translations, the
        accessed/dirty bits land with fancy-index stores, the latency
        charge is a vectorized table gather with a ``cumsum`` locating
        the exact access on which a daemon deadline fires.  Any access
        that breaks the pattern (fault, poison, deadline, region edge)
        detours through the scalar path, so the result stays
        bit-identical to the per-access drivers.
        """
        system = self.system
        scheduler = self.scheduler
        clock = system.clock
        stats = system.stats
        policy = system.policy
        run_due = scheduler.run_due
        slow_touch = system.touch
        store = system.pagestore
        reaccess_horizon = system._reaccess_horizon_ns
        c_reaccessed = system._c_promoted_reaccessed
        record_reaccess = stats.series["promoted_reaccessed_window"].record
        metrics = system.metrics
        record_reaccess_delay = (
            metrics.reaccess_delay.record if metrics is not None else None
        )
        mark_accessed = policy.mark_page_accessed
        inline_charge = system.inline_charge
        charge_access = policy.charge_access
        read_ns, write_ns = system.hardware.access_tables()
        remote_mult = system.config.latency.remote_socket_multiplier
        multi_socket = system.config.sockets > 1
        node_tier = system._node_tier
        node_read_ns = [read_ns[tier] for tier in node_tier]
        node_write_ns = [write_ns[tier] for tier in node_tier]
        faults_live = system.faults is not None
        node_is_dram = system._node_is_dram
        node_socket = system._node_socket
        # Vector-path tables: per-node latency/socket/tier as numpy rows.
        np_read = np.asarray(node_read_ns, dtype=np.int64)
        np_write = np.asarray(node_write_ns, dtype=np.int64)
        np_dram = np.asarray(node_is_dram, dtype=bool)
        np_socket = np.asarray(node_socket, dtype=np.int64)
        col_acc = store.pte_accessed
        col_dirty = store.pte_dirty
        col_flags = store.flags
        col_node = store.node
        col_await = store.awaiting_ns
        c_total = stats.counter("accesses.total")
        c_dram = stats.counter("accesses.dram")
        c_pm = stats.counter("accesses.pm")
        c_remote = stats.counter("accesses.remote")
        dirty_bit = int(PageFlags.DIRTY)
        n_accesses = 0
        now = clock._now_ns
        app_accum = 0
        acc_total = acc_dram = acc_pm = acc_remote = 0
        next_deadline = scheduler.next_deadline_ns
        # One process for the whole stream: its page table and home
        # socket are hoisted once instead of re-checked per access.
        page_table = process.page_table
        pt_dict = page_table._entries
        home_socket = process.home_socket
        reg_start = reg_end = 0  # empty range: first access misses the cache
        reg_supervised = False
        for vpages, writes in batches:
            vp = np.asarray(vpages, dtype=np.int64)
            wr = np.asarray(writes, dtype=bool)
            n = len(vp)
            if n == 0:
                continue
            n_accesses += n
            pos = 0
            vectorable = inline_charge
            if vectorable:
                # The whole batch must sit in one unsupervised region;
                # otherwise (or if the range is simply unmapped — the
                # scalar path owns raising that SIGSEGV at the exact
                # offending access) fall through to the scalar loop.
                bmin = int(vp.min())
                bmax = int(vp.max())
                if not (reg_start <= bmin and bmax < reg_end):
                    try:
                        region = process.region_for(bmin)
                    except LookupError:
                        vectorable = False
                    else:
                        if bmax < region.end_vpage:
                            reg_start = region.start_vpage
                            reg_end = region.end_vpage
                            reg_supervised = region.supervised
                        else:
                            vectorable = False
                if vectorable and reg_supervised:
                    vectorable = False
            # Translations are gathered once per batch and reused; the
            # cache is only dropped when the page table's unmap
            # generation moves (a new mapping can never turn a cached
            # hit stale, an unmap can).  Misses are pre-located; each
            # candidate miss is re-checked against the live table as the
            # scan reaches it and patched into a hit when an earlier
            # fault in the batch already mapped that vpage — O(1) per
            # entry, so a hot page faulting once neither fragments the
            # batch into scalar excursions nor costs a quadratic
            # patch-the-remainder pass per fault.
            pfns_all = None
            miss_pos = None
            n_miss = mi = gen = 0
            while vectorable and pos < n:
                if page_table._poison_count or not page_table.dense:
                    vectorable = False
                    break
                if pfns_all is None:
                    if not page_table.ensure_dense_capacity(bmax + 1):
                        vectorable = False
                        break
                    pfns_all = page_table.v2p[vp]
                    miss_pos = np.flatnonzero(pfns_all < 0)
                    n_miss = len(miss_pos)
                    mi = 0
                    gen = page_table._unmap_gen
                # Skip consumed misses and patch stale ones: a miss
                # recorded at gather time may have become resident via
                # an earlier fault on the same vpage in this batch.
                while mi < n_miss:
                    mp = int(miss_pos[mi])
                    if mp < pos or pfns_all[mp] >= 0:
                        mi += 1
                        continue
                    live = int(page_table.v2p[vp[mp]])
                    if live >= 0:
                        pfns_all[mp] = live
                        mi += 1
                        continue
                    break
                nxt = int(miss_pos[mi]) if mi < n_miss else n
                limit = nxt - pos
                if limit == 0:
                    # Fault on the next access: scalar excursion, then
                    # re-hoist anything an allocation may have replaced.
                    clock._now_ns = now
                    clock._app_ns += app_accum
                    c_total.n += acc_total
                    c_dram.n += acc_dram
                    c_pm.n += acc_pm
                    c_remote.n += acc_remote
                    app_accum = acc_total = acc_dram = acc_pm = acc_remote = 0
                    slow_touch(
                        process, int(vp[pos]), is_write=bool(wr[pos]), lines=lines
                    )
                    now = clock._now_ns
                    if next_deadline <= now:
                        run_due()
                        now = clock._now_ns
                        next_deadline = scheduler.next_deadline_ns
                        if faults_live:
                            node_read_ns = [read_ns[tier] for tier in node_tier]
                            node_write_ns = [write_ns[tier] for tier in node_tier]
                            np_read = np.asarray(node_read_ns, dtype=np.int64)
                            np_write = np.asarray(node_write_ns, dtype=np.int64)
                    col_acc = store.pte_accessed
                    col_dirty = store.pte_dirty
                    col_flags = store.flags
                    col_node = store.node
                    col_await = store.awaiting_ns
                    if page_table._unmap_gen != gen:
                        pfns_all = None
                    pos += 1
                    continue
                if limit < 32:
                    # Short run between faults: numpy's fixed per-call
                    # cost over a couple of accesses loses to a scalar
                    # loop on the same columns, and cold batches are
                    # almost entirely such runs.
                    end = pos + limit
                    while pos < end:
                        pfn = int(pfns_all[pos])
                        is_write = bool(wr[pos])
                        nid = int(col_node[pfn])
                        access_ns = lines * (
                            node_write_ns[nid] if is_write else node_read_ns[nid]
                        )
                        if multi_socket and node_socket[nid] != home_socket:
                            access_ns = int(access_ns * remote_mult)
                            acc_remote += 1
                        col_acc[pfn] = True
                        if is_write:
                            col_dirty[pfn] = True
                            col_flags[pfn] |= dirty_bit
                        now += access_ns
                        app_accum += access_ns
                        acc_total += 1
                        if node_is_dram[nid]:
                            acc_dram += 1
                        else:
                            acc_pm += 1
                        if system._awaiting_count:
                            promoted_at = int(col_await[pfn])
                            if promoted_at >= 0:
                                col_await[pfn] = -1
                                system._awaiting_count -= 1
                                if record_reaccess_delay is not None:
                                    record_reaccess_delay(now - promoted_at)
                                if now - promoted_at <= reaccess_horizon:
                                    c_reaccessed.n += 1
                                    record_reaccess(promoted_at)
                        pos += 1
                        if next_deadline <= now:
                            clock._now_ns = now
                            clock._app_ns += app_accum
                            c_total.n += acc_total
                            c_dram.n += acc_dram
                            c_pm.n += acc_pm
                            c_remote.n += acc_remote
                            app_accum = acc_total = acc_dram = acc_pm = acc_remote = 0
                            run_due()
                            now = clock._now_ns
                            next_deadline = scheduler.next_deadline_ns
                            if faults_live:
                                node_read_ns = [read_ns[tier] for tier in node_tier]
                                node_write_ns = [write_ns[tier] for tier in node_tier]
                                np_read = np.asarray(node_read_ns, dtype=np.int64)
                                np_write = np.asarray(node_write_ns, dtype=np.int64)
                            col_acc = store.pte_accessed
                            col_dirty = store.pte_dirty
                            col_flags = store.flags
                            col_node = store.node
                            col_await = store.awaiting_ns
                            # The daemons may have unmapped pages or
                            # hint-poisoned PTEs: bounce to the outer
                            # loop, which re-gathers or de-vectorizes.
                            if (
                                page_table._unmap_gen != gen
                                or page_table._poison_count
                            ):
                                pfns_all = None
                                break
                    continue
                seg = pfns_all[pos : pos + limit]
                w = wr[pos : pos + limit]
                nid_arr = col_node[seg]
                base = np.where(w, np_write[nid_arr], np_read[nid_arr])
                if lines != 1:
                    base = base * lines
                rem = None
                if multi_socket:
                    rem = np_socket[nid_arr] != home_socket
                    if rem.any():
                        # Same truncation as the scalar int(ns * mult).
                        base[rem] = (base[rem] * remote_mult).astype(np.int64)
                cum = np.cumsum(base)
                total = int(cum[-1])
                crossed = next_deadline <= now + total
                if crossed:
                    # First access whose end time reaches the deadline —
                    # it is charged before the daemons run, exactly as
                    # the scalar loop checks after each access.
                    j = int(np.searchsorted(cum, next_deadline - now, side="left"))
                    limit = j + 1
                    seg = seg[:limit]
                    w = w[:limit]
                    nid_arr = nid_arr[:limit]
                    cum = cum[:limit]
                    if rem is not None:
                        rem = rem[:limit]
                    total = int(cum[-1])
                # Hardware bit updates: duplicates in `seg` are fine —
                # both stores are idempotent.
                col_acc[seg] = True
                if w.any():
                    wseg = seg[w]
                    col_dirty[wseg] = True
                    col_flags[wseg] |= dirty_bit
                acc_total += limit
                nd = int(np.count_nonzero(np_dram[nid_arr]))
                acc_dram += nd
                acc_pm += limit - nd
                if rem is not None:
                    acc_remote += int(np.count_nonzero(rem))
                if system._awaiting_count:
                    # Promoted pages waiting for a re-access: rare, so the
                    # hits are replayed scalar, each against the virtual
                    # time of its own access (now + cum).  Re-reading the
                    # column per hit makes duplicate pfns consume the
                    # pending promotion exactly once, like the dict pop.
                    for i2 in np.flatnonzero(col_await[seg] >= 0).tolist():
                        hit_pfn = int(seg[i2])
                        promoted_at = int(col_await[hit_pfn])
                        if promoted_at < 0:
                            continue
                        col_await[hit_pfn] = -1
                        system._awaiting_count -= 1
                        now_i = now + int(cum[i2])
                        if record_reaccess_delay is not None:
                            record_reaccess_delay(now_i - promoted_at)
                        if now_i - promoted_at <= reaccess_horizon:
                            c_reaccessed.n += 1
                            record_reaccess(promoted_at)
                now += total
                app_accum += total
                pos += limit
                if crossed:
                    clock._now_ns = now
                    clock._app_ns += app_accum
                    c_total.n += acc_total
                    c_dram.n += acc_dram
                    c_pm.n += acc_pm
                    c_remote.n += acc_remote
                    app_accum = acc_total = acc_dram = acc_pm = acc_remote = 0
                    run_due()
                    now = clock._now_ns
                    next_deadline = scheduler.next_deadline_ns
                    if faults_live:
                        node_read_ns = [read_ns[tier] for tier in node_tier]
                        node_write_ns = [write_ns[tier] for tier in node_tier]
                        np_read = np.asarray(node_read_ns, dtype=np.int64)
                        np_write = np.asarray(node_write_ns, dtype=np.int64)
                    col_acc = store.pte_accessed
                    col_dirty = store.pte_dirty
                    col_flags = store.flags
                    col_node = store.node
                    col_await = store.awaiting_ns
                    if page_table._unmap_gen != gen:
                        pfns_all = None
            if pos >= n:
                continue
            # Scalar remainder: identical to touch_batch's inlined body.
            for vpage, is_write in zip(vp[pos:].tolist(), wr[pos:].tolist()):
                try:
                    pte = pt_dict[vpage]
                except KeyError:
                    pte = None
                if pte is None or pte.poisoned:
                    clock._now_ns = now
                    clock._app_ns += app_accum
                    c_total.n += acc_total
                    c_dram.n += acc_dram
                    c_pm.n += acc_pm
                    c_remote.n += acc_remote
                    app_accum = acc_total = acc_dram = acc_pm = acc_remote = 0
                    slow_touch(process, vpage, is_write=is_write, lines=lines)
                    now = clock._now_ns
                    if next_deadline <= now:
                        run_due()
                        now = clock._now_ns
                        next_deadline = scheduler.next_deadline_ns
                        if faults_live:
                            node_read_ns = [read_ns[tier] for tier in node_tier]
                            node_write_ns = [write_ns[tier] for tier in node_tier]
                            np_read = np.asarray(node_read_ns, dtype=np.int64)
                            np_write = np.asarray(node_write_ns, dtype=np.int64)
                    col_acc = store.pte_accessed
                    col_dirty = store.pte_dirty
                    col_flags = store.flags
                    col_node = store.node
                    col_await = store.awaiting_ns
                    continue
                if not reg_start <= vpage < reg_end:
                    region = process.region_for(vpage)
                    reg_start = region.start_vpage
                    reg_end = region.end_vpage
                    reg_supervised = region.supervised
                page = pte.page
                pfn = page.pfn
                col_acc[pfn] = True
                if is_write:
                    col_dirty[pfn] = True
                    col_flags[pfn] |= dirty_bit
                nid = col_node[pfn]
                if inline_charge:
                    access_ns = lines * (
                        node_write_ns[nid] if is_write else node_read_ns[nid]
                    )
                else:
                    clock._now_ns = now
                    clock._app_ns += app_accum
                    app_accum = 0
                    access_ns = charge_access(page, is_write, lines)
                    now = clock._now_ns
                if multi_socket and node_socket[nid] != home_socket:
                    access_ns = int(access_ns * remote_mult)
                    acc_remote += 1
                now += access_ns
                app_accum += access_ns
                acc_total += 1
                if node_is_dram[nid]:
                    acc_dram += 1
                else:
                    acc_pm += 1
                if reg_supervised:
                    mark_accessed(page)
                if system._awaiting_count:
                    promoted_at = col_await[pfn]
                    if promoted_at >= 0:
                        col_await[pfn] = -1
                        system._awaiting_count -= 1
                        promoted_at = int(promoted_at)
                        if record_reaccess_delay is not None:
                            record_reaccess_delay(now - promoted_at)
                        if now - promoted_at <= reaccess_horizon:
                            c_reaccessed.n += 1
                            record_reaccess(promoted_at)
                if next_deadline <= now:
                    clock._now_ns = now
                    clock._app_ns += app_accum
                    c_total.n += acc_total
                    c_dram.n += acc_dram
                    c_pm.n += acc_pm
                    c_remote.n += acc_remote
                    app_accum = acc_total = acc_dram = acc_pm = acc_remote = 0
                    run_due()
                    now = clock._now_ns
                    next_deadline = scheduler.next_deadline_ns
                    if faults_live:
                        node_read_ns = [read_ns[tier] for tier in node_tier]
                        node_write_ns = [write_ns[tier] for tier in node_tier]
                        np_read = np.asarray(node_read_ns, dtype=np.int64)
                        np_write = np.asarray(node_write_ns, dtype=np.int64)
                    col_acc = store.pte_accessed
                    col_dirty = store.pte_dirty
                    col_flags = store.flags
                    col_node = store.node
                    col_await = store.awaiting_ns
        clock._now_ns = now
        clock._app_ns += app_accum
        c_total.n += acc_total
        c_dram.n += acc_dram
        c_pm.n += acc_pm
        c_remote.n += acc_remote
        return n_accesses, n_accesses

    def drain_daemons(self) -> int:
        """Explicitly fire any overdue daemons (useful between phases)."""
        return self.scheduler.run_due()

    def memory_report(self) -> dict[str, dict[str, int]]:
        """Per-node usage and list occupancy snapshot."""
        report: dict[str, dict[str, int]] = {}
        for node in self.system.nodes.values():
            entry = {
                "capacity": node.capacity_pages,
                "used": node.used_pages,
                "free": node.free_pages,
            }
            entry.update(node.lruvec.counts())
            report[f"node{node.node_id}/{node.tier.name}"] = entry
        return report
