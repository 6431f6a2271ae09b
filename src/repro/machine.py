"""The assembled simulated machine: substrate + policy + daemons.

:class:`Machine` is the top-level object users construct: it builds the
memory system from a :class:`~repro.sim.config.SimulationConfig`, attaches
a tiering policy by registry name, registers the policy's daemons on the
virtual-clock scheduler, and exposes the access path workloads drive.

:meth:`Machine.touch` is the per-reference call: ``MemorySystem.touch``
plus any daemon work that came due.  :meth:`Machine.touch_batch` is the
one access driver: it takes :class:`AccessBlock` columns and sweeps the
positions that need no fault, hint fault, supervision or policy charge
with numpy against the struct-of-arrays page store, detouring through
``MemorySystem.touch`` for every other position.
:meth:`Machine.touch_batch_array` adapts numeric ``(vpages, writes)``
batches into blocks.  ``tests/perf/test_touch_batch_equivalence.py``
holds the driver bit-identical to a per-access :meth:`Machine.touch`
loop.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.mm.address_space import Process
from repro.mm.flags import PageFlags
from repro.mm.system import MemorySystem
from repro.policies.base import TieringPolicy, create_policy
from repro.sim.config import SimulationConfig
from repro.sim.events import DaemonScheduler

__all__ = ["AccessBlock", "Machine", "SHORT_RUN"]

#: Runs of fast positions shorter than this go through
#: ``MemorySystem.touch`` one by one: a column operation's fixed cost
#: loses to the scalar path on so few positions.
SHORT_RUN = 16

#: Slow positions re-read at once when the driver meets one that an
#: earlier touch made fast (a page faulted in earlier in the block).
_REFRESH = 256

_DIRTY = int(PageFlags.DIRTY)


class AccessBlock:
    """A run of one process's accesses, as columns.

    ``vpage`` (int64), ``write`` (bool), ``lines`` (int64) and
    ``op_boundary`` (bool) hold one entry per position.  The driver
    sets ``done`` to the number of positions it processed: all of them,
    unless a positive ``live`` let it end the block early (see
    :meth:`Machine.touch_batch`).  The field lives on the block, so a
    producer reads it when the driver asks for the next block.
    """

    __slots__ = ("process", "vpage", "write", "lines", "op_boundary", "live", "done")

    def __init__(
        self,
        process: Process,
        vpage: np.ndarray,
        write: np.ndarray,
        lines: np.ndarray,
        op_boundary: np.ndarray,
        *,
        live: int = 0,
    ) -> None:
        self.process = process
        self.vpage = vpage
        self.write = write
        self.lines = lines
        self.op_boundary = op_boundary
        self.live = live
        self.done = len(vpage)

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

    def touch_batch(self, blocks: "Iterable[AccessBlock]") -> tuple[int, int]:
        """Drive a stream of access blocks; the one access driver.

        Returns ``(accesses, operations)`` over the positions processed;
        ``operations`` counts their ``op_boundary`` marks.  Equivalent to
        calling :meth:`touch` once per position — faults, hint faults,
        daemon wakeups, counters and all three clock buckets advance
        identically — but most positions never leave numpy.

        Each block is resolved with one ``searchsorted`` over its
        process's region starts and one gather from the page table's
        region-packed ``v2p`` column.  A position is *slow* when its
        translation misses, its PTE is poisoned, it lies in a supervised
        region, or the policy overrides ``charge_access``.  Between slow
        positions and daemon deadlines the sweep applies the accessed,
        dirty and flag stores, the latency charge, the counters and the
        re-access replay as column operations; a ``cumsum`` over the
        charges finds the exact position on which a deadline fires.
        Every slow position, and every run shorter than
        :data:`SHORT_RUN`, goes through ``MemorySystem.touch``, the one
        scalar definition of an access.

        A daemon wakeup or a slow touch may unmap, poison or map pages;
        the rest of the block is then resolved again.  A block whose
        ``live`` is positive ends early (``done`` records where) if the
        table's size or unmap generation moved after one of its first
        ``live`` positions, so its producer can re-decide the rest
        against the live table.
        """
        system = self.system
        scheduler = self.scheduler
        clock = system.clock
        store = system.pagestore
        touch = system.touch
        run_due = scheduler.run_due
        c_total = system._c_accesses_total
        c_dram = system._c_accesses_dram
        c_pm = system._c_accesses_pm
        c_remote = system._c_accesses_remote
        c_reaccessed = system._c_promoted_reaccessed
        record_reaccess = system.stats.series["promoted_reaccessed_window"].record
        reaccess_horizon = system._reaccess_horizon_ns
        remote_mult = system._remote_mult
        faults_live = system.faults is not None
        all_slow = not system.inline_charge
        np_read, np_write = self._node_latency()
        np_dram = np.asarray(system._node_is_dram, dtype=bool)
        np_socket = np.asarray(system._node_socket, dtype=np.int64)
        n_accesses = n_operations = 0
        for block in blocks:
            process = block.process
            table = process.page_table
            entries = table._entries
            vp = block.vpage
            wr = block.write
            ln = block.lines
            n = len(vp)
            live = block.live
            # The live-stop rule compares against the table as the block
            # was produced.
            size0 = len(entries)
            gen = gen0 = table._unmap_gen
            pgen = table._poison_gen
            remote = bool((np_socket != process.home_socket).any())
            # Every run of a block shorter than SHORT_RUN is short.
            scalar = all_slow or n < SHORT_RUN
            pos = 0
            stale = not scalar
            slow_pos = np.empty(0, dtype=np.int64)
            n_slow = si = swept_to = 0
            while pos < n:
                if stale:
                    # Resolve [pos, n): translations, then the slow mask.
                    stale = False
                    gen = table._unmap_gen
                    pgen = table._poison_gen
                    if pos == 0:
                        slots, supervised = table.resolve(vp)
                        pfns = table.v2p[slots]
                    else:
                        rest, sup = table.resolve(vp[pos:])
                        slots[pos:] = rest
                        pfns[pos:] = table.v2p[rest]
                        if sup is not None:
                            supervised[pos:] = sup
                    slow = pfns[pos:] < 0
                    if supervised is not None:
                        slow |= supervised[pos:]
                    slow_pos = np.flatnonzero(slow) + pos
                    n_slow = len(slow_pos)
                    si = 0
                if scalar:
                    nxt = n - 1  # the whole block is one scalar run
                else:
                    # The next slow position.  A miss or poison that an
                    # earlier touch in this block resolved is fast now:
                    # on meeting one, the next _REFRESH slow positions
                    # are re-read from the live column at once and the
                    # fast ones dropped.
                    while si < n_slow:
                        sp = slow_pos.item(si)
                        if sp < pos:
                            si += 1
                            continue
                        if (supervised is not None and supervised[sp]) or (
                            table.v2p.item(slots.item(sp)) < 0
                        ):
                            break
                        window = slow_pos[si : si + _REFRESH]
                        values = table.v2p[slots[window]]
                        still = values < 0
                        if supervised is not None:
                            still |= supervised[window]
                        pfns[window[~still]] = values[~still]
                        kept = window[still]
                        si += len(window) - len(kept)
                        slow_pos[si : si + len(kept)] = kept
                    nxt = slow_pos.item(si) if si < n_slow else n
                limit = nxt - pos
                # A run is swept or detoured by its length when it starts;
                # the rest of a swept run cut by a deadline is swept too,
                # so daemons that only observe (a metrics sampler, say)
                # never move a position between the two paths.
                if limit >= SHORT_RUN and not scalar or nxt == swept_to > pos:
                    swept_to = nxt
                    seg = pfns[pos:nxt]
                    w = wr[pos:nxt]
                    nid = store.node[seg]
                    charge = np.where(w, np_write[nid], np_read[nid]) * ln[pos:nxt]
                    rem = None
                    if remote:
                        rem = np_socket[nid] != process.home_socket
                        # Same truncation as the scalar int(ns * mult).
                        charge[rem] = (charge[rem] * remote_mult).astype(np.int64)
                    cum = np.cumsum(charge)
                    now = clock._now_ns
                    total = int(cum[-1])
                    crossed = scheduler.next_deadline_ns <= now + total
                    if crossed:
                        # The first position whose end time reaches the
                        # deadline is charged before the daemons run.
                        limit = int(
                            np.searchsorted(
                                cum, scheduler.next_deadline_ns - now, side="left"
                            )
                        ) + 1
                        seg = seg[:limit]
                        w = w[:limit]
                        nid = nid[:limit]
                        cum = cum[:limit]
                        if rem is not None:
                            rem = rem[:limit]
                        total = int(cum[-1])
                    # Duplicate pfns are fine: every store is idempotent.
                    store.pte_accessed[seg] = True
                    if w.any():
                        written = seg[w]
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
                        # re-reading the column makes a duplicate pfn
                        # consume the pending promotion once.
                        awaiting = store.awaiting_ns
                        metrics = system.metrics
                        for i in np.flatnonzero(awaiting[seg] >= 0).tolist():
                            pfn = seg.item(i)
                            promoted_at = awaiting.item(pfn)
                            if promoted_at < 0:
                                continue
                            awaiting[pfn] = -1
                            system._awaiting_count -= 1
                            at = now + int(cum[i])
                            if metrics is not None:
                                metrics.reaccess_delay.record(at - promoted_at)
                            if at - promoted_at <= reaccess_horizon:
                                c_reaccessed.n += 1
                                record_reaccess(promoted_at)
                    clock._now_ns = now + total
                    clock._app_ns += total
                    pos += limit
                    if not crossed:
                        continue
                    run_due()
                    if faults_live:
                        np_read, np_write = self._node_latency()
                else:
                    end = min(nxt + 1, n)
                    rows = zip(
                        vp[pos:end].tolist(), wr[pos:end].tolist(), ln[pos:end].tolist()
                    )
                    for vpage, is_write, lines in rows:
                        touch(process, vpage, is_write=is_write, lines=lines)
                        pos += 1
                        if scheduler.next_deadline_ns <= clock._now_ns:
                            run_due()
                            if faults_live:
                                np_read, np_write = self._node_latency()
                        if pos <= live and (
                            len(entries) != size0 or table._unmap_gen != gen0
                        ):
                            break
                if pos <= live and (len(entries) != size0 or table._unmap_gen != gen0):
                    break
                if not scalar and (
                    table._unmap_gen != gen or table._poison_gen != pgen
                ):
                    stale = True
            block.done = pos
            n_accesses += pos
            n_operations += int(np.count_nonzero(block.op_boundary[:pos]))
        return n_accesses, n_operations

    def _node_latency(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node (read, write) ns, from the live per-tier tables."""
        system = self.system
        tiers = system._node_tier
        return (
            np.array([system._read_ns[tier] for tier in tiers], dtype=np.int64),
            np.array([system._write_ns[tier] for tier in tiers], dtype=np.int64),
        )

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
