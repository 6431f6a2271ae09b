"""Seeded, virtual-time-scheduled fault injection.

The :class:`FaultInjector` turns a declarative
:class:`~repro.faults.plan.FaultPlan` into live disturbances: each fault
window's edges become one-shot ``cost_free`` timers on the machine's
virtual-clock scheduler, so faults open and close at exact virtual times
regardless of workload shape, and every random draw (which copy fails,
which pages lock, how much jitter) comes from one RNG stream derived
from the plan's seed — two runs of the same (plan, workload, policy) are
bit-identical.

A plan acts only through the windows it opens.  Its edges are the
simulator's bookkeeping, not kernel threads, so they charge no wakeup;
stalls and jitter pass over every ``cost_free`` daemon (the edges, the
invariant checker and the metrics sampler).  A plan whose windows
change nothing — a 1.0x slowdown, a stall matching no daemon — leaves
the run bit-identical to the unarmed one.

Injection points, and the resilience code that absorbs each:

==================  ===================================================
fault               absorbed by
==================  ===================================================
copy failures       ``MigrationEngine.migrate_with_retry`` (bounded
                    retry + exponential virtual-time backoff)
lock bursts         promote-list recycling / scan rotation (the paper's
                    "page is locked" fallback paths)
PM slowdown         nothing to absorb — it degrades, measurably
capacity loss       watermark pressure -> demotion; direct reclaim with
                    ``vm.oom_stalls`` on the touch path
daemon stall        catch-up semantics of the scheduler (oversleeping
                    daemons fire once, never replay)
daemon jitter       same
==================  ===================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.plan import (
    CapacityLoss,
    CopyFailures,
    DaemonJitter,
    DaemonStall,
    FaultPlan,
    FaultSpec,
    LockBurst,
    PmSlowdown,
)
from repro.mm.flags import PageFlags
from repro.mm.hardware import MemoryTier
from repro.mm.lruvec import ListKind
from repro.sim.events import Daemon
from repro.sim.rng import make_rng
from repro.sim.vclock import NANOS_PER_SECOND

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine import Machine
    from repro.mm.numa import NumaNode
    from repro.mm.page import Page

__all__ = ["FaultInjector", "install_faults"]


class FaultInjector:
    """Arms a fault plan against one machine."""

    def __init__(self, machine: "Machine", plan: FaultPlan) -> None:
        self.machine = machine
        self.plan = plan.validated()
        self.rng = make_rng(plan.seed, "faults")
        stats = machine.system.stats
        self._c_copy_failures = stats.counter("faults.copy_failures_injected")
        self._c_pages_locked = stats.counter("faults.pages_locked")
        self._c_frames_offlined = stats.counter("faults.frames_offlined")
        self._c_windows = stats.counter("faults.windows_opened")
        # Active-window state (lists, because windows may overlap).
        self._copy_fail_rates: list[float] = []
        self._slowdown_multipliers: list[float] = []
        self._jitter_max_ns: list[int] = []
        self._locked_pages: dict[int, list["Page"]] = {}
        self._offlined: dict[int, tuple[int, int]] = {}  # event idx -> (node, frames)
        self._stalled: dict[int, list[str]] = {}
        self._armed = False

    # -- arming ------------------------------------------------------------

    def arm(self) -> None:
        """Install hooks and schedule every window edge as a one-shot
        ``cost_free`` timer."""
        if self._armed:
            raise RuntimeError("fault plan is already armed")
        self._armed = True
        system = self.machine.system
        system.migrator.copy_fault_hook = self._should_fail_copy
        now_ns = system.clock.now_ns
        edges: list[tuple[int, int, int, bool]] = []
        for index, event in enumerate(self.plan.events):
            start_ns = int(event.start_s * NANOS_PER_SECOND)
            end_ns = int(event.end_s * NANOS_PER_SECOND)
            # Sort key closes old windows before opening new ones when
            # edges share a deadline (back-to-back windows compose).
            edges.append((end_ns, 0, index, False))
            edges.append((start_ns, 1, index, True))
        for when_ns, __, index, opening in sorted(edges):
            delay_ns = max(1, when_ns - now_ns)
            name = f"fault/{index}/{'start' if opening else 'end'}"
            body = self._edge_body(index, opening)
            self.machine.scheduler.register(
                Daemon(
                    name, delay_ns / NANOS_PER_SECOND, body,
                    one_shot=True, cost_free=True,
                )
            )

    def _edge_body(self, index: int, opening: bool):
        event = self.plan.events[index]

        def body(now_ns: int) -> int:
            trace = self.machine.system.trace
            if trace is not None:
                trace.trace_fault_window(index, type(event).__name__, opening)
            if opening:
                self._c_windows.n += 1
                self._open(index, event)
            else:
                self._close(index, event)
            return 0

        return body

    # -- window transitions ------------------------------------------------

    def _open(self, index: int, event: FaultSpec) -> None:
        if isinstance(event, CopyFailures):
            self._copy_fail_rates.append(event.rate)
        elif isinstance(event, PmSlowdown):
            self._slowdown_multipliers.append(event.multiplier)
            self._apply_slowdown()
        elif isinstance(event, CapacityLoss):
            node = self.machine.system.nodes[event.node_id]
            taken = node.take_offline(event.frames)
            self._offlined[index] = (event.node_id, taken)
            self._c_frames_offlined.n += taken
        elif isinstance(event, LockBurst):
            self._lock_burst(index, event)
        elif isinstance(event, DaemonStall):
            self._stall(index, event)
        elif isinstance(event, DaemonJitter):
            self._jitter_max_ns.append(int(event.max_extra_s * NANOS_PER_SECOND))
            self.machine.scheduler.jitter_hook = self._jitter
        else:  # pragma: no cover - plan.validated() rejects unknown specs
            raise TypeError(f"unhandled fault spec {type(event).__name__}")

    def _close(self, index: int, event: FaultSpec) -> None:
        if isinstance(event, CopyFailures):
            self._copy_fail_rates.remove(event.rate)
        elif isinstance(event, PmSlowdown):
            self._slowdown_multipliers.remove(event.multiplier)
            self._apply_slowdown()
        elif isinstance(event, CapacityLoss):
            node_id, taken = self._offlined.pop(index, (event.node_id, 0))
            self.machine.system.nodes[node_id].bring_online(taken)
        elif isinstance(event, LockBurst):
            for page in self._locked_pages.pop(index, ()):
                page.clear(PageFlags.LOCKED)
        elif isinstance(event, DaemonStall):
            scheduler = self.machine.scheduler
            for name in self._stalled.pop(index, ()):
                scheduler.get(name).enabled = True
        elif isinstance(event, DaemonJitter):
            self._jitter_max_ns.remove(int(event.max_extra_s * NANOS_PER_SECOND))
            if not self._jitter_max_ns:
                self.machine.scheduler.jitter_hook = None

    # -- per-fault mechanics ----------------------------------------------

    def _should_fail_copy(self, page: "Page", dest: "NumaNode") -> bool:
        """MigrationEngine hook: does this copy attempt fail?"""
        if not self._copy_fail_rates:
            return False
        miss = 1.0
        for rate in self._copy_fail_rates:
            miss *= 1.0 - rate
        if self.rng.random() < 1.0 - miss:
            self._c_copy_failures.n += 1
            trace = self.machine.system.trace
            if trace is not None:
                trace.trace_fault_copy_fail(page.node_id, page.pfn, dest.node_id)
            return True
        return False

    def _apply_slowdown(self) -> None:
        effective = max(self._slowdown_multipliers, default=1.0)
        self.machine.system.hardware.set_tier_scale(MemoryTier.PM, effective)

    def _lock_burst(self, index: int, event: LockBurst) -> None:
        node = self.machine.system.nodes[event.node_id]
        candidates: list["Page"] = []
        for kind in (ListKind.INACTIVE, ListKind.ACTIVE, ListKind.PROMOTE):
            for is_anon in (True, False):
                for page in node.lruvec.list_for(kind, is_anon):
                    if not page.test(PageFlags.LOCKED):
                        candidates.append(page)
        if not candidates:
            self._locked_pages[index] = []
            return
        if len(candidates) <= event.pages:
            chosen = candidates
        else:
            picks = self.rng.choice(len(candidates), size=event.pages, replace=False)
            chosen = [candidates[i] for i in sorted(int(i) for i in picks)]
        for page in chosen:
            page.set(PageFlags.LOCKED)
        self._c_pages_locked.n += len(chosen)
        self._locked_pages[index] = chosen

    def _stall(self, index: int, event: DaemonStall) -> None:
        stalled = []
        for daemon in self.machine.scheduler.daemons:
            if daemon.cost_free:
                continue
            if daemon.name.startswith(event.name_prefix) and daemon.enabled:
                daemon.enabled = False
                stalled.append(daemon.name)
        self._stalled[index] = stalled

    def _jitter(self, daemon: Daemon) -> int:
        if daemon.cost_free:
            return 0
        limit = max(self._jitter_max_ns, default=0)
        if limit <= 0:
            return 0
        return int(self.rng.integers(0, limit))

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict[str, int]:
        """What was actually injected (all counters are virtual-time facts)."""
        stats = self.machine.system.stats
        return {
            "windows_opened": stats.get("faults.windows_opened"),
            "copy_failures_injected": stats.get("faults.copy_failures_injected"),
            "pages_locked": stats.get("faults.pages_locked"),
            "frames_offlined": stats.get("faults.frames_offlined"),
        }


def install_faults(machine: "Machine", plan: FaultPlan) -> FaultInjector:
    """Arm ``plan`` against ``machine`` and return the live injector."""
    if machine.system.faults is not None:
        raise RuntimeError("a fault plan is already installed on this machine")
    injector = FaultInjector(machine, plan)
    injector.arm()
    machine.system.faults = injector
    return injector
