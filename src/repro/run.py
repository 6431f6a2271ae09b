"""Top-level run API: drive a workload against a machine, measure it.

``run_workload`` is what every example, test and benchmark in this repo
calls.  It returns a :class:`RunResult` holding the virtual-time
performance numbers the paper reports (throughput in operations per
virtual second, execution time) together with the full stats snapshot
(promotions, demotions, faults, tier hit ratios).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.machine import Machine
from repro.sim.config import SimulationConfig
from repro.sim.vclock import NANOS_PER_SECOND
from repro.workloads.base import Workload

__all__ = ["RunResult", "run_workload", "run_numeric_stream"]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one ``(workload, policy, config)`` simulation.

    ``operations`` is the workload's own operation count when the run is
    *operation-marked* — the stream carried an ``op_boundary`` or the
    workload declares :attr:`~repro.workloads.base.Workload.marks_op_boundaries`.
    Only unmarked streams (raw page traces) fall back to the access
    count, with ``ops_fallback`` True so throughput numbers can be told
    apart from real operation rates.  A marked phase that completes zero
    operations reports ``operations == 0`` — not a silent switch to
    accesses/s.
    """

    workload: str
    policy: str
    operations: int
    accesses: int
    elapsed_ns: int
    app_ns: int
    system_ns: int
    counters: dict[str, int] = field(default_factory=dict, repr=False)
    ops_fallback: bool = False

    @property
    def elapsed_seconds(self) -> float:
        return self.elapsed_ns / NANOS_PER_SECOND

    @property
    def throughput_ops(self) -> float:
        """Operations per virtual second — the YCSB-style metric."""
        if self.elapsed_ns == 0:
            return 0.0
        return self.operations * NANOS_PER_SECOND / self.elapsed_ns

    @property
    def dram_access_fraction(self) -> float:
        total = self.counters.get("accesses.total", 0)
        if total == 0:
            return 0.0
        return self.counters.get("accesses.dram", 0) / total

    @property
    def promotions(self) -> int:
        return self.counters.get("migrate.promotions", 0)

    @property
    def demotions(self) -> int:
        return self.counters.get("migrate.demotions", 0)

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable form; round-trips via :meth:`from_dict`.

        This is the sweep-worker wire format, so it must stay a pure
        function of the dataclass fields (no derived values, no host
        facts) for parallel runs to merge byte-identically.
        """
        return {
            "workload": self.workload,
            "policy": self.policy,
            "operations": self.operations,
            "accesses": self.accesses,
            "elapsed_ns": self.elapsed_ns,
            "app_ns": self.app_ns,
            "system_ns": self.system_ns,
            "counters": dict(sorted(self.counters.items())),
            "ops_fallback": self.ops_fallback,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        return cls(
            workload=data["workload"],
            policy=data["policy"],
            operations=data["operations"],
            accesses=data["accesses"],
            elapsed_ns=data["elapsed_ns"],
            app_ns=data["app_ns"],
            system_ns=data["system_ns"],
            counters=dict(data["counters"]),
            ops_fallback=data["ops_fallback"],
        )

    def summary(self) -> str:
        """One-line human-readable result."""
        return (
            f"{self.workload} on {self.policy}: "
            f"{self.operations} ops in {self.elapsed_seconds:.3f}s virtual "
            f"({self.throughput_ops:,.0f} ops/s, "
            f"{100 * self.dram_access_fraction:.1f}% DRAM accesses, "
            f"{self.promotions} promotions, {self.demotions} demotions)"
        )


def run_workload(
    workload: Workload,
    config: SimulationConfig,
    policy: str = "multiclock",
    *,
    machine: Machine | None = None,
) -> RunResult:
    """Simulate ``workload`` on a machine running ``policy``.

    A pre-built ``machine`` may be supplied to run several workload phases
    back to back on warm state (the YCSB prescribed execution sequence);
    otherwise a fresh machine is built from ``config``.  The access stream
    is driven as column blocks through :meth:`Machine.touch_batch`.
    """
    return _measured(
        workload, config, policy, machine,
        lambda machine: machine.touch_batch(workload.blocks()),
    )


def run_numeric_stream(
    workload: Workload,
    config: SimulationConfig,
    stream: list,
    policy: str = "multiclock",
    *,
    machine: Machine | None = None,
) -> RunResult:
    """Replay a pre-generated numeric access stream for ``workload``.

    ``stream`` is a materialised list of ``(vpages, writes)`` batches —
    the output of a synthetic workload's ``numeric_batches()`` — shared
    read-only across many cells by the sweep pool so the (comparatively
    expensive) stream construction happens once per grid instead of once
    per cell.  ``workload`` still provides ``setup`` (process and region
    creation against the fresh machine), its name, and the per-access
    ``lines`` width; the result is bit-identical to
    ``run_workload(workload, config, policy)`` because ``blocks()`` are
    by definition exactly these batches.

    A pre-built ``machine`` may be supplied (mirroring
    :func:`run_workload`) so callers can arm tracing or metrics before
    the stream runs.
    """
    return _measured(
        workload, config, policy, machine,
        lambda machine: machine.touch_batch_array(
            workload.process, stream, lines=workload.lines  # type: ignore[attr-defined]
        ),
    )


def _measured(
    workload: Workload,
    config: SimulationConfig,
    policy: str,
    machine: Machine | None,
    drive: Callable[[Machine], tuple[int, int]],
) -> RunResult:
    """Set ``workload`` up, ``drive`` its stream and measure the deltas.

    ``drive`` returns the driver's ``(accesses, operations)``.
    """
    if machine is None:
        machine = Machine(config, policy)
    workload.setup(machine)
    clock = machine.clock
    start_ns, start_app, start_system = clock.now_ns, clock.app_ns, clock.system_ns
    start_counters = machine.stats.snapshot()
    accesses, operations = drive(machine)
    # A workload may declare that it marks op boundaries: a marked phase
    # that happens to complete zero operations must not be mislabelled as
    # a fallback run.
    marked = operations > 0 or workload.marks_op_boundaries
    end_counters = machine.stats.snapshot()
    return RunResult(
        workload=workload.name,
        policy=machine.policy.name,
        operations=operations if marked else accesses,
        accesses=accesses,
        elapsed_ns=clock.now_ns - start_ns,
        app_ns=clock.app_ns - start_app,
        system_ns=clock.system_ns - start_system,
        counters={
            key: end_counters.get(key, 0) - start_counters.get(key, 0)
            for key in end_counters
        },
        ops_fallback=not marked,
    )
