"""Shared inputs for the tracing tests."""

from __future__ import annotations

import pytest

from repro.machine import Machine
from repro.sim.config import DaemonConfig, SimulationConfig
from repro.workloads.multitenant import MultiTenantWorkload
from repro.workloads.synthetic import ZipfWorkload


def run_limited_colo(*, traced: bool = False, capacity: int | None = None) -> Machine:
    """Two Zipf tenants under MULTI-CLOCK, the second memcg-limited to a
    fifth of its footprint.

    DRAM is large enough to hold the capped tenant's hot set, and
    targeted reclaim walks the PM lists first under a bounded scan, so
    it often fails and the group stays over its limit.  kswapd's
    active-list rebalance then meets over-limit pages (``memcg``
    deactivations) alongside vanilla deactivations and edge-10
    promote-list joins.
    """
    config = SimulationConfig(
        dram_pages=(512,),
        pm_pages=(4096,),
        swap_pages=1 << 20,
        daemons=DaemonConfig(
            kpromoted_interval_s=0.002,
            kswapd_interval_s=0.001,
            hint_scan_interval_s=0.002,
        ),
        seed=7,
    )
    machine = Machine(config, "multiclock")
    if traced:
        machine.enable_tracing(capacity_per_node=capacity)
    memcg = machine.enable_memcg()
    tenants = [ZipfWorkload(1000, 10_000, seed=7 + i, write_ratio=0.2) for i in range(2)]
    workload = MultiTenantWorkload(tenants)
    workload.setup(machine)
    for tenant, limit in zip(tenants, (None, 200)):
        memcg.attach(tenant.process, memcg.create_group(tenant.name, limit))
    machine.touch_batch(workload.blocks())
    return machine


@pytest.fixture
def limited_colo():
    """:func:`run_limited_colo`, for tests that need a memcg limit."""
    return run_limited_colo


@pytest.fixture(scope="session")
def traced_limited_colo() -> Machine:
    """The traced, uncapped :func:`run_limited_colo`, run once per
    session.  Its users only read it: counters, clock and trace rings."""
    return run_limited_colo(traced=True)
