"""The assembled simulated machine: substrate + policy + daemons.

:class:`Machine` is the top-level object users construct: it builds the
memory system from a :class:`~repro.sim.config.SimulationConfig`, attaches
a tiering policy by registry name, registers the policy's daemons on the
virtual-clock scheduler, and exposes the access path workloads drive.

:meth:`Machine.touch` is the per-reference call: ``MemorySystem.touch``
plus any daemon work that came due.  :meth:`Machine.touch_batch` is the
one access driver: it takes :class:`AccessBlock` columns, charges the
positions that need no fault, supervision, policy charge or hint fault
that may move a page in place against the struct-of-arrays page store,
and steps each of the others through :meth:`Machine.touch`, as an event
inside one sweep of the block.  A block that asks for it gets each
position's charge back in its ``charges`` column; the colocation
experiment meters per-operation latency that way.
:meth:`Machine.touch_batch_array` adapts numeric ``(vpages, writes)``
batches into blocks.  ``tests/perf/test_touch_batch_equivalence.py``
holds the driver, and each position's charge, bit-identical to a
per-access :meth:`Machine.touch` loop.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.mm.address_space import Process
from repro.mm.flags import PageFlags
from repro.mm.page_table import UNMAPPED
from repro.mm.system import MemorySystem
from repro.policies.base import TieringPolicy, create_policy
from repro.sim.config import SimulationConfig
from repro.sim.events import DaemonScheduler

__all__ = ["AccessBlock", "Machine"]

#: Fast runs at least this long are charged as one column sweep; shorter
#: ones in a Python loop, where a numpy call's fixed cost would lose.
#: Both charge identically, so the value only moves host time.
_COLUMN_RUN = 24

_DIRTY = int(PageFlags.DIRTY)


class AccessBlock:
    """A run of one process's accesses, as columns.

    ``vpage`` (int64), ``write`` (bool), ``lines`` (int64) and
    ``op_boundary`` (bool) hold one entry per position.  The driver
    sets ``done`` to the number of positions it processed: all of them,
    unless a positive ``live`` let it end the block early (see
    :meth:`Machine.touch_batch`).  The field lives on the block, so a
    producer reads it when the driver asks for the next block.

    A producer that already knows each position's ``v2p`` slot may pass
    ``slots`` with ``regions``, the page table's region count they were
    read at; the driver resolves the block only if it has no slots or
    the count has moved since.

    A producer that meters latency passes ``charges``, an int64 column
    as long as the block: the driver stores there the nanoseconds each
    processed position charged, exactly what :meth:`Machine.touch`
    would have returned for it.
    """

    __slots__ = (
        "process", "vpage", "write", "lines", "op_boundary", "live", "done",
        "slots", "regions", "charges",
    )

    def __init__(
        self,
        process: Process,
        vpage: np.ndarray,
        write: np.ndarray,
        lines: np.ndarray,
        op_boundary: np.ndarray,
        *,
        live: int = 0,
        slots: np.ndarray | None = None,
        regions: int = -1,
        charges: np.ndarray | None = None,
    ) -> None:
        self.process = process
        self.vpage = vpage
        self.write = write
        self.lines = lines
        self.op_boundary = op_boundary
        self.live = live
        self.done = len(vpage)
        self.slots = slots
        self.regions = regions
        self.charges = charges

    @classmethod
    def numeric(
        cls, process: Process, vpages: Iterable[int], writes: Iterable[bool], lines: int
    ) -> "AccessBlock":
        """A synthetic batch: every access one operation of ``lines`` lines."""
        vpage = np.asarray(vpages, dtype=np.int64)
        n = len(vpage)
        return cls(
            process, vpage, np.asarray(writes, dtype=bool),
            np.full(n, lines, dtype=np.int64), np.ones(n, dtype=bool),
        )

    def __len__(self) -> int:
        return len(self.vpage)


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

        The sweep is a ``cost_free`` daemon, like the metrics sampler: it
        observes, so a checked run charges the clock exactly what the
        unchecked run does.  Returns the
        :class:`~repro.mm.debug.InvariantChecker` so callers can also
        sweep on demand and read ``last_violations``.
        """
        from repro.mm.debug import InvariantChecker
        from repro.sim.events import Daemon

        checker = InvariantChecker(self.system, strict=strict)
        self.scheduler.register(
            Daemon(checker.name, interval_s, checker.run, cost_free=True)
        )
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

    def touch_batch(self, blocks: "Iterable[AccessBlock]") -> tuple[int, int]:
        """Drive a stream of access blocks; the one access driver.

        Returns ``(accesses, operations)`` over the positions processed;
        ``operations`` counts their ``op_boundary`` marks.  Equivalent to
        calling :meth:`touch` once per position — faults, hint faults,
        daemon wakeups, counters and all three clock buckets advance
        identically — but only *events* are stepped through
        :meth:`touch`, and so reach ``MemorySystem.touch``, the one
        definition of an access.  A block with a ``charges`` column gets
        each processed position's charge stored there.  If an event
        raises (``LookupError`` for an unmapped vpage,
        ``ProcessKilledError`` for an OOM-killed tenant), the block's
        ``done`` is the raising position and every earlier position is
        charged.

        A block's resolution is its positions' ``v2p`` slots: those it
        carries, if read at the table's current region count, or else
        one ``searchsorted`` over its process's region starts.  One
        gather from the region-packed ``v2p`` column, and one from
        ``slot_supervised`` when the process has supervised regions,
        read the translations and the supervised mask.  An event is a
        position in a supervised region, any position when the policy
        overrides ``charge_access``, and a position whose translation
        misses when the driver reaches it, or whose PTE is then poisoned
        and whose hint fault may move a page.  The resolve lists the
        slow positions, and each is judged against the live column when
        the search for the next event reaches it.  A hint fault on a
        node the policy's ``quiet_hint_nodes`` marks (one that moves no
        page) is not an event: the search passes it.  The fault or hint
        fault at a page's first slow position leaves the page mapped and
        clean for the rest of the block, so at its first quiet hint
        fault, or fast entry with more than a few left, the search keeps
        only each page's first listed position from there on.  It stops
        once the quiet hint faults it passed reach the next deadline.

        The positions between events are charged in place: stores to
        the accessed, dirty and flag columns, the latency charge on the
        page's live node, the counters and the re-access replay.  A
        quiet hint fault is charged there too: its slot is un-poisoned,
        ``hint_fault_ns`` joins its position's charge, ``faults.hint``
        counts it and the policy's ``note_hint_faults`` books it, all
        when the position is charged and not when it is judged.  A run
        of at least :data:`_COLUMN_RUN` positions is one column sweep,
        where a ``cumsum`` over the charges finds the exact position on
        which a daemon deadline fires; a shorter run is a Python loop
        that checks the deadline after each position.  Both read the
        translation and node columns as they charge, so a page an event
        mapped or a handler migrated needs no patching.  After a
        deadline's daemons run, the rest of the run is judged again: a
        daemon may have moved a page, or freed a frame, since.

        A daemon wakeup or an event may unmap or poison pages; the rest
        of the block's translations are then gathered again from the
        same slots.  A block whose ``live`` is positive ends early
        (``done`` records where) if the table's size or unmap generation
        moved after one of its first ``live`` positions, so its producer
        can re-decide the rest against the live table.
        """
        system = self.system
        scheduler = self.scheduler
        clock = system.clock
        store = system.pagestore
        touch = self.touch
        note_reaccess = system._note_reaccess
        run_due = scheduler.run_due
        c_total = system._c_accesses_total
        c_dram = system._c_accesses_dram
        c_pm = system._c_accesses_pm
        c_remote = system._c_accesses_remote
        c_hint = system._c_faults_hint
        hint_ns = system._hint_fault_ns
        quiet_hint_nodes = system.policy.quiet_hint_nodes
        note_hint_faults = system.policy.note_hint_faults
        remote_mult = system._remote_mult
        all_slow = not system.inline_charge
        # The live per-node latency table, rescaled in place by a fault
        # window: lists for the Python loop, arrays for the column sweep.
        hardware = system.hardware
        read_ns, write_ns = hardware.read_ns, hardware.write_ns
        np_read, np_write = hardware.read_ns_col, hardware.write_ns_col
        node_dram = system._node_is_dram
        node_socket = system._node_socket
        np_dram = np.asarray(node_dram, dtype=bool)
        np_socket = np.asarray(node_socket, dtype=np.int64)
        sockets = set(node_socket)
        n_accesses = n_operations = 0
        for block in blocks:
            process = block.process
            home = process.home_socket
            table = process.page_table
            vp = block.vpage
            wr = block.write
            ln = block.lines
            n = len(vp)
            live = block.live
            charges = block.charges
            # The live-stop rule compares against the table as the block
            # was produced.
            size0 = len(table)
            gen0 = table._unmap_gen
            remote = sockets != {home}
            pos = 0
            stale = True
            try:
                while pos < n:
                    if stale:
                        # Read [pos, n)'s translations and list its events.
                        stale = False
                        gen = table._unmap_gen
                        pgen = table._poison_gen
                        ei = 0
                        if all_slow:
                            supervised = None
                            events = np.arange(pos, n)
                        else:
                            if pos == 0:
                                slots = block.slots
                                if slots is None or block.regions != table.n_regions:
                                    slots = table.resolve(vp)
                                pfns = table.v2p[slots]
                                supervised = (
                                    table.slot_supervised[slots]
                                    if process.supervised_regions else None
                                )
                            else:
                                # Slots outlive unmaps and poisonings.
                                pfns[pos:] = table.v2p[slots[pos:]]
                            slow = pfns[pos:] < 0
                            if supervised is not None:
                                slow |= supervised[pos:]
                            events = slow.nonzero()[0] + pos
                        firsts = False
                    # The next event: a position still slow when reached,
                    # unless it is a hint fault that moves no page.  Those
                    # are charged in the run before it; nothing changes
                    # until the run charges them.  Once their hint_fault_ns
                    # alone reach the next deadline, the run ends there at
                    # the latest, so the search stops: the daemons may
                    # change the answer for the rest.
                    v2p = table.v2p
                    node = store.node
                    quiet = None if all_slow else quiet_hint_nodes()
                    gap = scheduler.next_deadline_ns - clock._now_ns
                    first = ei
                    hints = []
                    nxt = n
                    while ei < len(events):
                        e = events.item(ei)
                        if all_slow or (supervised is not None and supervised.item(e)):
                            nxt = e
                            break
                        entry = v2p.item(slots.item(e))
                        if entry < 0 and (
                            entry == UNMAPPED
                            or quiet is None
                            or not quiet[node.item(-2 - entry)]
                        ):
                            nxt = e
                            break
                        if not firsts and (entry < 0 or len(events) - ei >= _COLUMN_RUN):
                            # Keep each page's first listed position from
                            # here on, and every supervised one: a quiet
                            # hint fault's later positions must not pay it
                            # again, and a page an event made fast stays
                            # fast for the block.
                            rest = events[ei:]
                            keep = np.zeros(len(rest), dtype=bool)
                            keep[np.unique(vp[rest], return_index=True)[1]] = True
                            if supervised is not None:
                                keep |= supervised[rest]
                            events = rest[keep]
                            ei = first = 0
                            firsts = True
                            continue
                        if entry < 0:
                            hints.append(e)
                            gap -= hint_ns
                            if gap <= 0:
                                # Not an event: the run is due by here.
                                ei += 1
                                nxt = e + 1
                                break
                        # Else an earlier event mapped or cleared this page.
                        ei += 1
                    if nxt - pos < _COLUMN_RUN:
                        # A short run in a Python loop, then the event ending
                        # it.  The store's columns grow on allocation: bind
                        # them per run.
                        accessed = store.pte_accessed
                        dirty = store.pte_dirty
                        flags = store.flags
                        awaiting = store.awaiting_ns
                        deadline = scheduler.next_deadline_ns
                        start = pos
                        now = now0 = clock._now_ns
                        in_dram = n_remote = 0
                        hinted = []
                        hinted_at = []
                        due = False
                        while pos < nxt:
                            pfn = pfns.item(pos)
                            if pfn < 0:  # made fast since the resolve, or a quiet hint fault
                                slot = slots.item(pos)
                                pfn = v2p.item(slot)
                                if pfn < 0:
                                    pfn = -2 - pfn
                                    v2p[slot] = pfn
                                    hinted.append(pfn)
                                    hinted_at.append(pos)
                                    now += hint_ns
                            accessed[pfn] = True
                            nid = node.item(pfn)
                            if wr.item(pos):
                                dirty[pfn] = True
                                flags[pfn] |= _DIRTY
                                ns = write_ns[nid] * ln.item(pos)
                            else:
                                ns = read_ns[nid] * ln.item(pos)
                            if remote and node_socket[nid] != home:
                                # Same truncation as MemorySystem.touch.
                                ns = int(ns * remote_mult)
                                n_remote += 1
                            now += ns
                            if charges is not None:
                                charges[pos] = ns
                            in_dram += node_dram[nid]
                            pos += 1
                            if system._awaiting_count and awaiting.item(pfn) >= 0:
                                note_reaccess(pfn, now)
                            if deadline <= now:
                                due = True
                                break
                        if pos > start:
                            clock._now_ns = now
                            clock._app_ns += now - now0
                            c_total.n += pos - start
                            c_dram.n += in_dram
                            c_pm.n += pos - start - in_dram
                            c_remote.n += n_remote
                            if hinted:
                                c_hint.n += len(hinted)
                                note_hint_faults(hinted)
                                if charges is not None:
                                    charges[hinted_at] += hint_ns
                        if not due and pos < n:
                            # The event step runs the daemons it made due.
                            ei += 1
                            ns = touch(
                                process, vp.item(pos), is_write=wr.item(pos),
                                lines=ln.item(pos),
                            )
                            if charges is not None:
                                charges[pos] = ns
                            pos += 1
                    else:
                        seg = v2p[slots[pos:nxt]]
                        if hints:
                            # The quiet hint faults' pages read poisoned at
                            # every position of the run; the first pays.
                            at = np.array(hints) - pos
                            seg = np.where(seg < 0, -2 - seg, seg)
                        w = wr[pos:nxt]
                        nid = node[seg]
                        charge = np.where(w, np_write[nid], np_read[nid]) * ln[pos:nxt]
                        rem = None
                        if remote:
                            rem = np_socket[nid] != home
                            # Same truncation as the scalar int(ns * mult).
                            charge[rem] = (charge[rem] * remote_mult).astype(np.int64)
                        if hints:
                            charge[at] += hint_ns
                        cum = charge.cumsum()
                        now = clock._now_ns
                        limit = nxt - pos
                        total = cum.item(-1)
                        due = scheduler.next_deadline_ns <= now + total
                        if due:
                            # The first position whose end time reaches the
                            # deadline is charged before the daemons run.
                            left = scheduler.next_deadline_ns - now
                            limit = int(cum.searchsorted(left)) + 1
                            seg = seg[:limit]
                            w = w[:limit]
                            nid = nid[:limit]
                            cum = cum[:limit]
                            if rem is not None:
                                rem = rem[:limit]
                            total = cum.item(-1)
                            if hints:
                                at = at[at < limit]
                        if hints and len(at):
                            hit = seg[at]
                            v2p[slots[pos + at]] = hit
                            c_hint.n += len(at)
                            note_hint_faults(hit)
                        # Duplicate pfns are fine: every store is idempotent.
                        store.pte_accessed[seg] = True
                        written = seg[w]
                        if len(written):
                            store.pte_dirty[written] = True
                            store.flags[written] |= _DIRTY
                        c_total.n += limit
                        in_dram = int(np.count_nonzero(np_dram[nid]))
                        c_dram.n += in_dram
                        c_pm.n += limit - in_dram
                        if rem is not None:
                            c_remote.n += int(np.count_nonzero(rem))
                        if system._awaiting_count:
                            # Replayed per hit at its own access's end time;
                            # the replay re-reads the column, so a duplicate
                            # pfn consumes the pending promotion once.
                            hits = (store.awaiting_ns[seg] >= 0).nonzero()[0].tolist()
                            for i in hits:
                                note_reaccess(seg.item(i), now + cum.item(i))
                        clock._now_ns = now + total
                        clock._app_ns += total
                        if charges is not None:
                            charges[pos:pos + limit] = charge[:limit]
                        pos += limit
                    if due:
                        # Judge the rest of the run again after the daemons.
                        ei = first + int(events[first:ei].searchsorted(pos))
                        run_due()
                    if pos <= live and (len(table) != size0 or table._unmap_gen != gen0):
                        break
                    if table._unmap_gen != gen or table._poison_gen != pgen:
                        stale = True
            finally:
                block.done = pos
            n_accesses += pos
            n_operations += int(np.count_nonzero(block.op_boundary[:pos]))
        return n_accesses, n_operations

    def touch_batch_array(
        self,
        process: Process,
        batches: "Iterable[tuple[Iterable[int], Iterable[bool]]]",
        *,
        lines: int = 1,
    ) -> tuple[int, int]:
        """Drive ``(vpages, writes)`` batches of one process.

        Every access marks an operation boundary and touches ``lines``
        cache lines — the shape of every synthetic workload stream.
        Each batch becomes one :class:`AccessBlock` for
        :meth:`touch_batch`.
        """
        return self.touch_batch(
            AccessBlock.numeric(process, vpages, writes, lines)
            for vpages, writes in batches
        )

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
