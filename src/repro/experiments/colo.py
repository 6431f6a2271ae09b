"""Multi-tenant colocation — the service-machine experiment.

The paper's subject machine is a Memcached *service*: one box, many
tenants, one shared DRAM tier.  This experiment colocates N
:class:`~repro.workloads.multitenant.KVTenantWorkload` tenants —
heterogeneous Zipf skew, phase-shifted diurnal traffic, per-phase
hotspot shifts — on one two-tier machine with the memcg controller
armed, and reports what each tenant *experienced*: per-operation p50 /
p99 access latency from a per-tenant
:class:`~repro.metrics.histogram.Log2Histogram`, resident pages per
tier, swap footprint, and whether the OOM killer took the tenant down.

Tenants are interleaved round-robin in scheduler-timeslice bursts (the
:class:`~repro.workloads.multitenant.MultiTenantWorkload` discipline),
so a quiet diurnal phase of one tenant hands the machine to the busy
ones.  Each timeslice is one :meth:`~repro.machine.Machine.touch_batch`
call over views of the tenant's blocks, and the driver's per-position
``charges`` give each operation's latency.  A tenant whose group the
OOM killer selects dies mid-run
(:class:`~repro.mm.memcg.ProcessKilledError`); the driver records the
kill and keeps feeding the survivors — the machine-stays-up property
the memcg layer exists for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.analysis.report import render_table
from repro.experiments.common import scale, scaled_config
from repro.machine import AccessBlock, Machine
from repro.mm.memcg import ProcessKilledError
from repro.workloads.multitenant import KVTenantWorkload

__all__ = ["TenantRow", "run_colo", "render_colo", "build_colo_tenants"]

#: Heterogeneous tenant profiles, cycled when more tenants are asked
#: for: (zipf alpha, read ratio, diurnal phase weights).  Tenant 0 is
#: skewed and diurnal, tenant 1 is flatter with an inverted day/night
#: cycle, tenant 2 is read-heavy with a collapsing tail phase.
TENANT_PROFILES: tuple[tuple[float, float, tuple[float, ...]], ...] = (
    (1.2, 0.9, (1.0, 0.35, 1.0)),
    (1.0, 0.8, (0.35, 1.0, 0.5)),
    (1.1, 0.95, (1.0, 0.7, 0.25)),
    (0.9, 0.85, (0.5, 0.5, 1.0)),
)

#: Operations per round-robin burst — the scheduler timeslice.
TIMESLICE_OPS = 32


@dataclass(frozen=True)
class TenantRow:
    """What one tenant experienced on the shared machine."""

    name: str
    alpha: float
    limit_pages: int | None
    footprint_pages: int
    ops_completed: int
    killed: bool
    p50_ns: float | None
    p99_ns: float | None
    rss_pages: int
    rss_by_node: dict[int, int]
    swap_pages: int


def build_colo_tenants(
    n_tenants: int,
    records_per_tenant: int,
    ops_per_tenant: int,
    *,
    seed: int = 7,
    value_size: int = 1024,
) -> list[KVTenantWorkload]:
    """N tenants with cycled heterogeneous profiles and distinct seeds."""
    tenants = []
    for i in range(n_tenants):
        alpha, read_ratio, phases = TENANT_PROFILES[i % len(TENANT_PROFILES)]
        tenants.append(
            KVTenantWorkload(
                f"tenant{i}",
                records_per_tenant,
                ops_per_tenant,
                alpha=alpha,
                read_ratio=read_ratio,
                phases=phases,
                value_size=value_size,
                seed=seed + i,
            )
        )
    return tenants


def run_colo(
    *,
    n_tenants: int = 3,
    records_per_tenant: int | None = None,
    ops_per_tenant: int | None = None,
    policy: str = "multiclock",
    dram_pages: int | None = None,
    pm_pages: int | None = None,
    swap_pages: int = 1 << 20,
    limits: Sequence[int | None] | None = None,
    interval_s: float = 1.0,
    seed: int = 7,
) -> dict:
    """Colocate ``n_tenants`` KV tenants on one machine; meter each.

    ``limits`` gives each tenant's memcg page limit positionally (None =
    unlimited; a short sequence leaves the rest unlimited).
    ``interval_s`` is in paper seconds, like every experiment here.
    Machine sizing defaults to the YCSB discipline: DRAM a third of the
    combined footprint, PM twice it — tight enough that tenants
    actually fight for the fast tier.
    """
    if n_tenants <= 0:
        raise ValueError("need at least one tenant")
    if limits is not None and len(limits) > n_tenants:
        raise ValueError(
            f"{len(limits)} limits given for {n_tenants} tenants; "
            "pass at most one limit per tenant"
        )
    records_per_tenant = (
        records_per_tenant if records_per_tenant is not None else scale(2000)
    )
    ops_per_tenant = (
        ops_per_tenant if ops_per_tenant is not None else scale(8000)
    )
    tenants = build_colo_tenants(
        n_tenants, records_per_tenant, ops_per_tenant, seed=seed
    )
    footprint = sum(t.footprint_pages() for t in tenants)
    config = scaled_config(
        dram_pages if dram_pages is not None else max(256, footprint // 3),
        pm_pages if pm_pages is not None else footprint * 2,
        interval_s=interval_s,
        seed=seed,
    ).with_overrides(swap_pages=swap_pages)
    machine = Machine(config, policy)
    registry = machine.enable_metrics()
    memcg = machine.enable_memcg()

    groups = []
    for i, tenant in enumerate(tenants):
        tenant.setup(machine)
        limit = None
        if limits is not None and i < len(limits):
            limit = limits[i]
        group = memcg.create_group(tenant.name, limit_pages=limit)
        assert tenant.process is not None
        memcg.attach(tenant.process, group)
        groups.append(group)

    killed = _drive(machine, tenants)

    rows = []
    for tenant, group in zip(tenants, groups):
        hist = registry.tenant_histogram(tenant.name)
        rows.append(
            TenantRow(
                name=tenant.name,
                alpha=tenant.alpha,
                limit_pages=group.limit_pages,
                footprint_pages=tenant.footprint_pages(),
                ops_completed=hist.count,
                killed=tenant.name in killed,
                p50_ns=hist.quantile(0.5) if hist.count else None,
                p99_ns=hist.quantile(0.99) if hist.count else None,
                rss_pages=group.rss_total,
                rss_by_node=dict(group.rss),
                swap_pages=memcg.swap_pages_of(group),
            )
        )
    return {
        "rows": rows,
        "policy": policy,
        "machine": machine,
        "registry": registry,
        "memcg": memcg,
        "oom_kills": machine.stats.snapshot().get("memcg.oom_group_kills", 0),
    }


def _drive(machine: Machine, tenants: list[KVTenantWorkload]) -> set[str]:
    """Run the tenants round-robin, one timeslice per ``touch_batch``
    call, and record each completed operation's latency in its tenant's
    histogram.  Returns the names of the tenants the OOM killer took."""
    cursors = {t.name: _TenantCursor(t) for t in tenants}
    killed: set[str] = set()
    live = list(tenants)
    while live:
        finished = []
        for tenant in live:
            cursor = cursors[tenant.name]
            try:
                machine.touch_batch(cursor.turn(TIMESLICE_OPS))
            except ProcessKilledError:
                cursor.kill()
                killed.add(tenant.name)
                finished.append(tenant)
                continue
            if cursor.finished:
                finished.append(tenant)
        for tenant in finished:
            live.remove(tenant)
    # Nothing reads the histograms during the run, so each is filled once.
    registry = machine.system.metrics
    for tenant in tenants:
        latencies = np.concatenate(cursors[tenant.name].latencies)
        registry.tenant_histogram(tenant.name).record_many(latencies)
    return killed


class _TenantCursor:
    """One tenant's operation stream as a cursor over its blocks.

    :meth:`turn` hands the driver the next operations as views of the
    tenant's current block, and of the next one when the turn straddles
    them; a block is emitted only when a turn reaches it.  Each block is
    resolved once, and its views carry its slots and share its
    ``charges`` column.  When the cursor leaves a block, the charges are
    summed per operation into :attr:`latencies`.
    """

    def __init__(self, tenant: KVTenantWorkload) -> None:
        self._blocks = tenant.blocks()
        self._block: AccessBlock | None = None
        #: each operation's start in the current block, then its end
        self._bounds = np.zeros(1, dtype=np.int64)
        #: operations of the current block handed out before this view
        self._op = 0
        self._view: AccessBlock | None = None
        #: per-operation latencies of the completed operations
        self.latencies: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
        self.finished = False

    def turn(self, ops: int) -> Iterator[AccessBlock]:
        """Views covering the next ``ops`` operations; sets
        :attr:`finished` once the stream runs dry."""
        while ops:
            if self._op == len(self._bounds) - 1:
                self._leave(self._op)
                block = next(self._blocks, None)
                if block is None:
                    self.finished = True
                    return
                table = block.process.page_table
                block.slots = table.resolve(block.vpage)
                block.regions = table.n_regions
                block.charges = np.empty(len(block), dtype=np.int64)
                self._block = block
                self._bounds = np.flatnonzero(np.r_[True, block.op_boundary])
            block = self._block
            take = min(ops, len(self._bounds) - 1 - self._op)
            lo = self._bounds.item(self._op)
            hi = self._bounds.item(self._op + take)
            self._view = AccessBlock(
                block.process, block.vpage[lo:hi], block.write[lo:hi],
                block.lines[lo:hi], block.op_boundary[lo:hi],
                slots=block.slots[lo:hi], regions=block.regions,
                charges=block.charges[lo:hi],
            )
            yield self._view
            self._op += take
            ops -= take

    def kill(self) -> None:
        """The last view raised at its ``done``: keep the operations
        completed before it."""
        at = self._bounds.item(self._op) + self._view.done
        self._leave(int(np.searchsorted(self._bounds, at, side="right")) - 1)

    def _leave(self, completed: int) -> None:
        """Sum the current block's first ``completed`` operations."""
        bounds = self._bounds
        if completed:
            self.latencies.append(np.add.reduceat(
                self._block.charges[:bounds[completed]], bounds[:completed]
            ))
        self._bounds = bounds[:1]
        self._op = 0


def render_colo(result: dict) -> str:
    """Per-tenant latency/footprint table plus the machine verdict."""
    rows = []
    for row in result["rows"]:
        rows.append(
            [
                row.name,
                f"{row.alpha:.2f}",
                "max" if row.limit_pages is None else row.limit_pages,
                row.footprint_pages,
                row.ops_completed,
                "KILLED" if row.killed else "ok",
                "-" if row.p50_ns is None else f"{row.p50_ns:,.0f}",
                "-" if row.p99_ns is None else f"{row.p99_ns:,.0f}",
                row.rss_pages,
                row.swap_pages,
            ]
        )
    table = render_table(
        ["tenant", "alpha", "limit", "footprint", "ops", "status",
         "p50_ns", "p99_ns", "rss", "swap"],
        rows,
    )
    survivors = sum(1 for row in result["rows"] if not row.killed)
    verdict = (
        f"{survivors}/{len(result['rows'])} tenants finished on "
        f"{result['policy']}; {result['oom_kills']} OOM group kill(s)"
    )
    return f"{table}\n{verdict}"
