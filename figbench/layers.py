"""Outside-in per-layer timing for the traced benchmark run.

Every span is recorded by a wrapper this file installs around a public
function of one simulator layer; nothing under ``src/`` is edited.  A
wrapper replaces a class attribute (``Machine.touch_batch``), a module
binding (``repro.core.demotion.shrink_inactive_list``, patched where the
caller imported it) or a per-object callable (each daemon's ``body``,
wrapped as ``DaemonScheduler.register`` sees it).  Spans nest on one
stack, so a layer's *self* time is its span time minus the time of the
spans it called into, and the self times partition the traced wall
apart from the benchmark's own glue (``trace.unattributed_frac``).

Wrappers only observe: each returns exactly what the wrapped call
returned, so a traced pass must reproduce the untraced digests — the
parent process checks that it does.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

__all__ = [
    "Profiler", "DAEMON_KINDS", "LAYER_SPANS", "EXPECTED_SPANS",
    "PER_LAYER_UNITS", "OPTIONAL_METRICS", "layer_metrics",
]

_clock = time.perf_counter_ns

#: Daemon names are ``<kind>/<node>``; these are every kind the four
#: workloads' policies register, each reported as ``daemon.<kind>_s``.
DAEMON_KINDS = (
    "kpromoted", "kswapd", "hint-scanner", "nimble-promote", "opm-demote",
    "vmstat_sampler",
)

#: Every span, and the metric its self time is reported under.
LAYER_SPANS = {
    span: f"{span}_s"
    for span in (
        "workloads.emit", "machine.touch_batch", "machine.touch_batch_array",
        "machine.touch", "machine.init", "mm.fault", "memcg.charge",
        "memcg.reclaim", "vmscan.deactivate", "vmscan.shrink",
        "policies.hook", "bench.check",
    ) + tuple(f"daemon.{kind}" for kind in DAEMON_KINDS)
}
LAYER_SPANS["migrate"] = "migrate.s"

#: Every per-layer metric and its unit.  Set-up marks and the sweep
#: control plane are 0 on the workloads that have none.
PER_LAYER_UNITS = {
    **{metric: "s" for metric in LAYER_SPANS.values()},
    "workloads.accesses": "count",
    "workloads.ns_per_access": "ns",
    "setup.graph_s": "s",
    "setup.streams_s": "s",
    "setup.records_s": "s",
    "mm.faults": "count",
    "mm.fault_us": "us",
    **{f"daemon.{kind}.wakeups": "count" for kind in DAEMON_KINDS},
    "kpromoted.pages_scanned": "count",
    "kpromoted.ns_per_page": "ns",
    "vmscan.pgscan": "count",
    "vmscan.steal_ratio": "ratio",
    "migrate.attempts": "count",
    "migrate.ok_ratio": "ratio",
    "memcg.pages_reclaimed": "count",
    "sweep.prepare_s": "s",
    "sweep.execute_s": "s",
    "sweep.merge_s": "s",
    "sweep.compute_s": "s",
    "sweep.envelope_s": "s",
    "sweep.cell_p50_s": "s",
    "sweep.cell_max_s": "s",
    "trace.unattributed_frac": "ratio",
    "trace.overhead": "x",
    "sim.mc_vs_static": "x",
    "host.peak_rss_mb": "MB",
}
OPTIONAL_METRICS = tuple(
    name for name in PER_LAYER_UNITS if name.startswith(("setup.", "sweep."))
)

#: Spans each workload is predicted to enter.  A span that records no
#: call on its workload fails the traced pass, so a rebinding in the
#: program (a caller that stops going through the wrapped function)
#: cannot silently report a layer as free.
EXPECTED_SPANS = {
    "fig6-gapbs": (
        "machine.init", "machine.touch_batch", "workloads.emit", "mm.fault",
        "daemon.kpromoted", "daemon.kswapd", "daemon.hint-scanner",
        "daemon.nimble-promote", "daemon.opm-demote",
    ),
    "fig5-ycsb": (
        "machine.init", "machine.touch_batch", "workloads.emit", "mm.fault",
        "migrate", "vmscan.deactivate", "vmscan.shrink", "policies.hook",
        "daemon.kpromoted", "daemon.kswapd", "daemon.hint-scanner",
        "daemon.nimble-promote", "daemon.opm-demote",
    ),
    "sweep-grid": (
        "machine.init", "machine.touch_batch_array", "workloads.emit",
        "mm.fault", "migrate", "vmscan.deactivate", "vmscan.shrink",
        "daemon.kpromoted", "daemon.kswapd", "daemon.hint-scanner",
        "daemon.nimble-promote",
    ),
    "colo-memcg": (
        "machine.init", "machine.touch", "workloads.emit", "mm.fault",
        "memcg.charge", "memcg.reclaim", "migrate", "vmscan.deactivate",
        "vmscan.shrink", "daemon.kpromoted", "daemon.kswapd",
        "daemon.vmstat_sampler",
    ),
}

#: Modules that import the reclaim scans by name; each binding is
#: patched so every caller's scans are seen.
_VMSCAN_BINDINGS = (
    ("repro.core.kpromoted", ("shrink_inactive_list",)),
    ("repro.core.demotion", ("deactivate_excess_active", "shrink_inactive_list")),
    ("repro.policies.base", ("deactivate_excess_active", "shrink_inactive_list")),
    ("repro.policies.movement", ("shrink_inactive_list",)),
)

#: Policy callbacks on the access and fault paths.  No region of the
#: four workloads is supervised, so MULTI-CLOCK's mark_page_accessed
#: never runs; the hint-fault hook is where AutoTiering spends its time.
_POLICY_HOOKS = ("on_access", "charge_access", "mark_page_accessed", "on_hint_fault")


class Profiler:
    """Nested span accounting plus the counts taken at the same wrappers."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[int]] = []

    # -- spans ---------------------------------------------------------------

    def call(self, span: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside ``span``; returns its result unchanged."""
        stack = self._stack
        frame = [0]
        stack.append(frame)
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = _clock() - t0
            stack.pop()
            self.self_ns[span] += elapsed - frame[0]
            self.calls[span] += 1
            if stack:
                stack[-1][0] += elapsed

    def attributed_ns(self) -> int:
        return sum(self.self_ns.values())

    # -- installation --------------------------------------------------------

    def _wrap(self, owner: Any, attr: str, span: str,
              note: Callable[[Any, tuple], None] | None = None) -> None:
        original = getattr(owner, attr)
        call = self.call

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = call(span, original, *args, **kwargs)
            if note is not None:
                note(result, args)
            return result

        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer boundary, for the rest of the process.  Call
        before any machine is built."""
        import importlib

        import repro.core  # noqa: F401 - registers the MULTI-CLOCK policies
        import repro.policies  # noqa: F401 - registers the baseline policies
        from repro.machine import Machine
        from repro.mm.memcg import MemcgController
        from repro.mm.migrate import MigrationEngine
        from repro.mm.system import MemorySystem
        from repro.policies.base import TieringPolicy
        from repro.sim.events import DaemonScheduler
        from repro.workloads.multitenant import KVTenantWorkload

        counts = self.counts
        profiler = self

        # Access drivers, with the stream wrapped so time inside the
        # workload's next() is emission, read one item at a time.
        touch_batch = Machine.touch_batch
        touch_batch_array = Machine.touch_batch_array

        def batch_driver(machine, accesses):
            return profiler.call(
                "machine.touch_batch", touch_batch, machine,
                _TimedIter(profiler, accesses, lambda access: 1),
            )

        def array_driver(machine, process, batches, **kwargs):
            return profiler.call(
                "machine.touch_batch_array", touch_batch_array, machine, process,
                _TimedIter(profiler, batches, lambda batch: len(batch[0])), **kwargs,
            )

        Machine.touch_batch = functools.wraps(touch_batch)(batch_driver)
        Machine.touch_batch_array = functools.wraps(touch_batch_array)(array_driver)
        self._wrap(Machine, "touch", "machine.touch")
        self._wrap(Machine, "__init__", "machine.init")

        original_ops = KVTenantWorkload.operations

        def operations(workload):
            return _TimedIter(profiler, original_ops(workload), len)

        KVTenantWorkload.operations = functools.wraps(original_ops)(operations)

        def note_fault(result, args):
            counts["mm.faults"] += 1

        self._wrap(MemorySystem, "touch", "mm.fault", note_fault)

        def note_migrate(outcome, args):
            counts["migrate.attempts"] += 1
            counts["migrate.ok"] += bool(outcome.ok)

        self._wrap(MigrationEngine, "migrate", "migrate", note_migrate)
        self._wrap(MemcgController, "try_charge", "memcg.charge")

        def note_reclaim(freed, args):
            counts["memcg.pages_reclaimed"] += freed

        self._wrap(MemcgController, "reclaim_group", "memcg.reclaim", note_reclaim)

        original_register = DaemonScheduler.register

        def register(scheduler, daemon):
            kind = daemon.name.split("/", 1)[0]
            if kind not in DAEMON_KINDS:
                raise RuntimeError(f"daemon kind {kind!r} has no metric")
            body = daemon.body
            span = f"daemon.{kind}"
            daemon.body = lambda now_ns: profiler.call(span, body, now_ns)
            return original_register(scheduler, daemon)

        DaemonScheduler.register = functools.wraps(original_register)(register)

        def note_deactivate(result, args):
            counts["vmscan.pgscan"] += result.scanned

        def note_shrink(result, args):
            counts["vmscan.pgscan"] += result.scanned
            counts["vmscan.shrink_scanned"] += result.scanned
            counts["vmscan.stolen"] += result.demoted + result.evicted

        for module_name, names in _VMSCAN_BINDINGS:
            module = importlib.import_module(module_name)
            for name in names:
                if name == "deactivate_excess_active":
                    self._wrap(module, name, "vmscan.deactivate", note_deactivate)
                else:
                    self._wrap(module, name, "vmscan.shrink", note_shrink)

        # Only overrides: the drivers inline the base-class defaults by an
        # identity test, which wrapping them would defeat.
        pending = list(TieringPolicy.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for hook in _POLICY_HOOKS:
                if hook in vars(cls):
                    self._wrap(cls, hook, "policies.hook")


class _TimedIter:
    """An iterator whose every ``next()`` is a ``workloads.emit`` span."""

    __slots__ = ("_next", "_profiler", "_weight")

    def __init__(self, profiler: Profiler, iterable: Iterable,
                 weight: Callable[[Any], int]) -> None:
        self._next = iter(iterable).__next__
        self._profiler = profiler
        self._weight = weight

    def __iter__(self) -> "_TimedIter":
        return self

    def __next__(self) -> Any:
        item = self._profiler.call("workloads.emit", self._next)
        self._profiler.counts["workloads.accesses"] += self._weight(item)
        return item


def layer_metrics(profiler: Profiler, counters: dict[str, int]) -> dict[str, float]:
    """The per-layer numbers of one traced pass (sweep metrics excluded).

    ``counters`` are the program's own counters summed over the pass;
    ``kpromoted.pages_scanned`` comes from there, since the scan loop
    inside a kpromoted wakeup has no public function to wrap.
    """
    self_s = {span: profiler.self_ns.get(span, 0) / 1e9 for span in LAYER_SPANS}
    counts = profiler.counts
    out: dict[str, float] = {
        metric: self_s[span] for span, metric in LAYER_SPANS.items()
    }
    accesses = counts.get("workloads.accesses", 0)
    out["workloads.accesses"] = accesses
    out["workloads.ns_per_access"] = (
        self_s["workloads.emit"] * 1e9 / accesses if accesses else 0.0
    )
    faults = counts.get("mm.faults", 0)
    out["mm.faults"] = faults
    out["mm.fault_us"] = self_s["mm.fault"] * 1e6 / faults if faults else 0.0
    for kind in DAEMON_KINDS:
        out[f"daemon.{kind}.wakeups"] = profiler.calls.get(f"daemon.{kind}", 0)
    scanned = counters.get("kpromoted.pages_scanned", 0)
    out["kpromoted.pages_scanned"] = scanned
    out["kpromoted.ns_per_page"] = (
        self_s["daemon.kpromoted"] * 1e9 / scanned if scanned else 0.0
    )
    out["vmscan.pgscan"] = counts.get("vmscan.pgscan", 0)
    shrink_scanned = counts.get("vmscan.shrink_scanned", 0)
    out["vmscan.steal_ratio"] = (
        counts.get("vmscan.stolen", 0) / shrink_scanned if shrink_scanned else 0.0
    )
    attempts = counts.get("migrate.attempts", 0)
    out["migrate.attempts"] = attempts
    out["migrate.ok_ratio"] = counts.get("migrate.ok", 0) / attempts if attempts else 0.0
    out["memcg.pages_reclaimed"] = counts.get("memcg.pages_reclaimed", 0)
    return out
