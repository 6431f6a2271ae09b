"""Chaos harness: a policy × workload matrix under a fault schedule.

``repro chaos`` (and ``tests/chaos/``) drive every requested policy over
every requested workload with a :class:`~repro.faults.plan.FaultPlan`
armed and the ``CONFIG_DEBUG_VM`` invariant checker sweeping periodically,
then assert the three robustness properties the subsystem exists for:

1. **completion** — no uncaught exception ends the run (OOM kills are
   recorded, not crashes);
2. **cleanliness** — zero invariant violations across every periodic
   sweep and a final full sweep;
3. **determinism** — the report is a pure function of (plan, matrix,
   config): same seed, same ``CHAOS_report.json``, bit for bit.

The report deliberately contains no wall-clock or host facts — everything
in it is virtual-time state, which is what makes property 3 checkable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.faults.injector import install_faults
from repro.faults.plan import CapacityLoss, CopyFailures, FaultPlan
from repro.machine import Machine
from repro.mm.system import OutOfMemoryError
from repro.run import RunResult, run_workload
from repro.sim.config import SimulationConfig
from repro.workloads.base import Workload

__all__ = [
    "ChaosCell",
    "ChaosReport",
    "default_plan",
    "run_chaos",
    "write_report",
    "render_report",
    "DEFAULT_REPORT",
]

DEFAULT_REPORT = "CHAOS_report.json"

#: counters worth surfacing per cell — the observability the retry /
#: degradation machinery exists to provide.
_REPORT_COUNTERS = (
    "migrate.attempts",
    "migrate.failed_copy",
    "migrate.failed_dest_full",
    "migrate.failed_locked",
    "migrate.retries",
    "migrate.retry_succeeded",
    "migrate.retries_exhausted",
    "migrate.promotions",
    "migrate.demotions",
    "vm.oom_stalls",
    "oom.kills",
    "alloc.direct_reclaim",
    "faults.windows_opened",
    "faults.copy_failures_injected",
    "faults.pages_locked",
    "faults.frames_offlined",
    "debug_vm.checks",
    "debug_vm.violations",
    "kpromoted.promoted",
    "kpromoted.deactivated",
)


@dataclass(frozen=True)
class ChaosCell:
    """One (policy, workload) run of the matrix."""

    policy: str
    workload: str
    completed: bool
    oom_killed: bool
    error: str
    elapsed_ns: int
    accesses: int
    violations: int
    violation_details: tuple[str, ...]
    counters: dict[str, int] = field(default_factory=dict)
    # Present only when the matrix ran with tracing armed
    # (run_chaos(trace_capacity=...)): the lifecycle auditor's verdict.
    trace_audit: dict[str, Any] | None = None

    @property
    def clean(self) -> bool:
        if self.trace_audit is not None and self.trace_audit["mismatches"]:
            return False
        return self.completed and self.violations == 0

    def to_dict(self) -> dict[str, Any]:
        data = {
            "policy": self.policy,
            "workload": self.workload,
            "completed": self.completed,
            "oom_killed": self.oom_killed,
            "error": self.error,
            "elapsed_ns": self.elapsed_ns,
            "accesses": self.accesses,
            "violations": self.violations,
            "violation_details": list(self.violation_details),
            "counters": dict(sorted(self.counters.items())),
        }
        if self.trace_audit is not None:
            data["trace_audit"] = self.trace_audit
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ChaosCell":
        """Rebuild a cell from :meth:`to_dict` output — the sweep-worker
        wire format.  ``from_dict(x.to_dict())`` round-trips exactly, so
        the merged matrix does not depend on the worker count."""
        return cls(
            policy=data["policy"],
            workload=data["workload"],
            completed=data["completed"],
            oom_killed=data["oom_killed"],
            error=data["error"],
            elapsed_ns=data["elapsed_ns"],
            accesses=data["accesses"],
            violations=data["violations"],
            violation_details=tuple(data["violation_details"]),
            counters=dict(data["counters"]),
            trace_audit=data.get("trace_audit"),
        )


@dataclass(frozen=True)
class ChaosReport:
    """The full matrix outcome plus the plan that produced it."""

    plan: FaultPlan
    cells: tuple[ChaosCell, ...]

    @property
    def all_clean(self) -> bool:
        return all(cell.clean for cell in self.cells)

    def to_dict(self) -> dict[str, Any]:
        return {
            "plan": self.plan.to_dict(),
            "all_clean": self.all_clean,
            "cells": [cell.to_dict() for cell in self.cells],
        }


def default_plan(seed: int = 42) -> FaultPlan:
    """The acceptance schedule: 20% transient migration copy failures for
    most of the run, plus one PM capacity-loss window."""
    return FaultPlan(
        seed=seed,
        events=(
            CopyFailures(start_s=0.002, end_s=30.0, rate=0.2),
            CapacityLoss(start_s=0.01, end_s=0.05, node_id=1, frames=1024),
        ),
    )


def run_chaos(
    policies: list[str],
    workloads: list[dict[str, Any]],
    plan: FaultPlan,
    config: dict[str, Any],
    *,
    check_interval_s: float = 0.005,
    trace_capacity: int | None = None,
    workers: int = 1,
) -> ChaosReport:
    """Run the matrix; every cell gets a fresh machine and a fresh fault
    schedule, so cells are independent and individually reproducible.

    ``workloads`` and ``config`` are the specs that
    :func:`~repro.sweep.runners.build_workload` and
    :func:`~repro.sweep.runners.build_config` take; each workload spec's
    ``kind`` names its column of the matrix.  The config and the plan
    are checked here, so a bad one is a ``ValueError`` before any
    worker forks.

    ``trace_capacity`` arms the tracepoint layer on every cell (ring
    capacity per node) and runs the lifecycle auditor after each run;
    audit mismatches mark the cell dirty.

    The matrix runs as ``chaos-cell`` cells of one sweep across
    ``workers`` persistent, crash-isolated worker processes
    (:mod:`repro.sweep`).  Determinism property 3 is what makes the
    sharding safe: each cell is a pure function of (plan, cell, config),
    so the merge — keyed by (policy, workload) in matrix order — does
    not depend on ``workers``.  A cell whose worker fails every attempt
    becomes an uncompleted cell in the report (``completed=False``),
    never a sweep abort.
    """
    from repro.sweep import SweepCell, SweepSpec, run_sweep
    from repro.sweep.runners import build_config

    build_config(config).validated()
    plan.validated()
    grid = [(policy, workload) for policy in policies for workload in workloads]
    spec = SweepSpec(
        name="run_chaos",
        cells=tuple(
            SweepCell(
                id=f"{policy}/{workload['kind']}",
                runner="chaos-cell",
                params={
                    "policy": policy,
                    "workload": workload,
                    "plan": plan.to_dict(),
                    "config": config,
                    "check_interval_s": check_interval_s,
                    "trace_capacity": trace_capacity,
                },
            )
            for policy, workload in grid
        ),
    )
    outcome = run_sweep(spec, workers=workers)
    cells = []
    for (policy, workload), cell_outcome in zip(grid, outcome.outcomes):
        if cell_outcome.ok:
            cells.append(ChaosCell.from_dict(cell_outcome.payload))
        else:
            # The chaos runner catches everything a simulation can
            # raise, so only a set-up error or a hard worker death lands
            # here; keep the never-abort contract by reporting it as a
            # dirty cell.
            cells.append(
                ChaosCell(
                    policy=policy,
                    workload=workload["kind"],
                    completed=False,
                    oom_killed=False,
                    error=f"sweep worker failed: {cell_outcome.error}",
                    elapsed_ns=0,
                    accesses=0,
                    violations=0,
                    violation_details=(),
                    counters={},
                )
            )
    return ChaosReport(plan=plan, cells=tuple(cells))


def _run_cell(
    policy: str,
    workload_name: str,
    workload: Workload,
    plan: FaultPlan,
    config: SimulationConfig,
    check_interval_s: float,
    trace_capacity: int | None = None,
) -> ChaosCell:
    machine = Machine(config, policy)
    if trace_capacity is not None:
        machine.enable_tracing(capacity_per_node=trace_capacity)
    install_faults(machine, plan)
    checker = machine.install_invariant_checker(check_interval_s)
    details: list[str] = []
    result: RunResult | None = None
    completed = False
    oom_killed = False
    error = ""
    try:
        result = run_workload(workload, config, machine=machine)
        completed = True
    except OutOfMemoryError as exc:
        # Graceful degradation's last resort: recorded, not a crash.
        oom_killed = True
        error = f"OutOfMemoryError: {exc}"
    except Exception as exc:  # noqa: BLE001 - chaos runs must report, not die
        error = f"{type(exc).__name__}: {exc}"
    # Final sweep over whatever state the run ended in.
    final = checker.check()
    details.extend(str(v) for v in checker.last_violations)
    violations = machine.stats.get("debug_vm.violations")
    counters = {
        key: machine.stats.get(key) for key in _REPORT_COUNTERS
    }
    trace_audit = None
    if trace_capacity is not None:
        from repro.trace import audit_machine

        report = audit_machine(machine)
        trace_audit = {
            "checks": report.checks,
            "events_replayed": report.events_replayed,
            "complete": report.complete,
            "mismatches": len(report.mismatches),
            "mismatch_details": list(report.mismatches[:20]),
        }
    return ChaosCell(
        policy=policy,
        workload=workload_name,
        completed=completed,
        oom_killed=oom_killed,
        error=error,
        elapsed_ns=machine.clock.now_ns,
        accesses=result.accesses if result is not None else machine.stats.get("accesses.total"),
        violations=violations,
        violation_details=tuple(details[:20]),
        counters=counters,
        trace_audit=trace_audit,
    )


def write_report(report: ChaosReport, path: str = DEFAULT_REPORT) -> None:
    """Serialise deterministically: sorted keys, no timestamps, newline-terminated."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def render_report(report: ChaosReport) -> str:
    """Human-readable matrix summary for the CLI."""
    lines = ["policy × workload under faults:"]
    for cell in report.cells:
        status = "clean" if cell.clean else ("OOM" if cell.oom_killed else "DIRTY")
        retries = cell.counters.get("migrate.retries", 0)
        healed = cell.counters.get("migrate.retry_succeeded", 0)
        lines.append(
            f"  {cell.policy:>12} × {cell.workload:<16} {status:>5}  "
            f"{cell.counters.get('faults.copy_failures_injected', 0)} copy faults, "
            f"{retries} retries ({healed} healed), "
            f"{cell.counters.get('vm.oom_stalls', 0)} oom stalls, "
            f"{cell.violations} violations"
        )
    verdict = "ALL CLEAN" if report.all_clean else "FAILURES PRESENT"
    lines.append(f"chaos verdict: {verdict}")
    return "\n".join(lines)
