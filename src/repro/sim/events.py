"""Periodic daemon scheduling on the virtual clock.

The kernel threads the paper adds or relies on — ``kpromoted`` (one per
node), ``kswapd``, AutoTiering's hint-fault scanner — are modelled as
periodic callbacks.  The simulator is trace driven, so instead of a full
event queue the :class:`DaemonScheduler` is *pumped*: after every batch of
workload accesses the machine calls :meth:`run_due`, which fires every
daemon whose next deadline has passed.  This mirrors how kernel daemons
only matter at the granularity of their wakeup period.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.sim.vclock import NANOS_PER_SECOND, VirtualClock

__all__ = ["Daemon", "DaemonScheduler", "NEVER_NS"]

NEVER_NS = 1 << 62
"""Sentinel deadline meaning "no daemon is registered"."""


class Daemon:
    """A named periodic callback.

    ``body`` receives the current virtual time (ns) and returns the number
    of nanoseconds of system work the wakeup consumed, which the scheduler
    charges to the clock.  Returning 0 models a wakeup that found nothing
    to do.

    ``one_shot=True`` makes the daemon a timer instead: it fires once,
    ``interval_s`` after registration, and is not rescheduled.  The fault
    injector uses these for the edges of its fault windows.

    ``cost_free=True`` exempts the daemon from the scheduler's fixed
    per-wakeup charge, and fault-injected stalls and jitter pass over
    it.  It marks whatever is the simulator's own machinery rather than
    a kernel thread: observers (the vmstat metrics sampler, the
    invariant checker) and the fault injector's window edges.  Arming
    them must not perturb the virtual clock, or the armed-vs-off
    bit-identity guarantees would break.  Simulated kernel threads keep
    the default and pay their wakeup cost.
    """

    def __init__(
        self,
        name: str,
        interval_s: float,
        body: Callable[[int], int],
        *,
        enabled: bool = True,
        one_shot: bool = False,
        cost_free: bool = False,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"daemon {name!r} needs a positive interval")
        self.name = name
        self.interval_ns = int(interval_s * NANOS_PER_SECOND)
        self.body = body
        self.enabled = enabled
        self.one_shot = one_shot
        self.cost_free = cost_free
        self.wakeups = 0

    def __repr__(self) -> str:
        kind = "once in" if self.one_shot else "every"
        return f"Daemon({self.name!r}, {kind} {self.interval_ns}ns, wakeups={self.wakeups})"


class DaemonScheduler:
    """Runs registered daemons when their deadlines pass.

    Deadlines are kept in a heap keyed by ``(next_deadline, seq)``; the
    sequence number makes ordering deterministic when two daemons share a
    deadline (registration order wins).

    The earliest deadline is additionally cached in ``next_deadline_ns``
    so the per-access pump is a single integer compare: callers on the
    hot path check ``scheduler.next_deadline_ns <= clock.now_ns`` before
    paying for a :meth:`run_due` call, and :meth:`run_due` itself returns
    immediately when nothing is due.
    """

    def __init__(self, clock: VirtualClock, *, wakeup_cost_ns: int = 0) -> None:
        if wakeup_cost_ns < 0:
            raise ValueError("wakeup cost cannot be negative")
        self._clock = clock
        self._wakeup_cost_ns = wakeup_cost_ns
        self._heap: list[tuple[int, int, Daemon]] = []
        self._seq = itertools.count()
        self._daemons: dict[str, Daemon] = {}
        self.next_deadline_ns: int = NEVER_NS
        # Optional wakeup-jitter hook (fault injection): called once per
        # reschedule, returns extra nanoseconds to delay the next wakeup.
        self.jitter_hook: Callable[[Daemon], int] | None = None

    def register(self, daemon: Daemon) -> Daemon:
        """Register ``daemon``; its first wakeup is one interval from now."""
        if daemon.name in self._daemons:
            raise ValueError(f"daemon {daemon.name!r} already registered")
        self._daemons[daemon.name] = daemon
        first = self._clock.now_ns + daemon.interval_ns
        heapq.heappush(self._heap, (first, next(self._seq), daemon))
        if first < self.next_deadline_ns:
            self.next_deadline_ns = first
        return daemon

    def get(self, name: str) -> Daemon:
        return self._daemons[name]

    @property
    def daemons(self) -> list[Daemon]:
        return list(self._daemons.values())

    def run_due(self) -> int:
        """Fire every daemon whose deadline has passed; return ns charged.

        A daemon that falls far behind (its deadline is several intervals
        in the past, e.g. after a long-latency swap-in) fires once and is
        rescheduled from *now*, matching how a sleeping kernel thread that
        oversleeps does not replay missed wakeups.
        """
        if self._clock.now_ns < self.next_deadline_ns:
            return 0
        charged = 0
        while self._heap and self._heap[0][0] <= self._clock.now_ns:
            deadline, __, daemon = heapq.heappop(self._heap)
            if daemon.enabled:
                daemon.wakeups += 1
                work_ns = daemon.body(self._clock.now_ns)
                if not daemon.cost_free:
                    work_ns += self._wakeup_cost_ns
                if work_ns:
                    self._clock.advance_system(work_ns)
                    charged += work_ns
            if daemon.one_shot:
                del self._daemons[daemon.name]
                continue
            next_deadline = max(deadline, self._clock.now_ns) + daemon.interval_ns
            if self.jitter_hook is not None:
                next_deadline += max(0, self.jitter_hook(daemon))
            heapq.heappush(self._heap, (next_deadline, next(self._seq), daemon))
        self.next_deadline_ns = self._heap[0][0] if self._heap else NEVER_NS
        return charged
