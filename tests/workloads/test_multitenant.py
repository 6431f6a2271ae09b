"""Unit tests for the multi-tenant workload combinator."""

import numpy as np
import pytest

from repro.machine import Machine
from repro.run import run_workload
from repro.sim.config import SimulationConfig
from repro.workloads.multitenant import MultiTenantWorkload
from repro.workloads.synthetic import UniformWorkload, ZipfWorkload

CONFIG = SimulationConfig(dram_pages=(256,), pm_pages=(2048,))
DUAL = SimulationConfig(dram_pages=(128, 128), pm_pages=(1024, 1024), sockets=2)


def test_validation():
    with pytest.raises(ValueError):
        MultiTenantWorkload([])
    with pytest.raises(ValueError):
        MultiTenantWorkload([ZipfWorkload(10, 10)], home_sockets=[0, 1])
    with pytest.raises(ValueError):
        MultiTenantWorkload([ZipfWorkload(10, 10)], batch=0)


def test_all_tenant_ops_delivered():
    tenants = [ZipfWorkload(100, 400, seed=1), UniformWorkload(100, 700, seed=2)]
    workload = MultiTenantWorkload(tenants)
    result = run_workload(workload, CONFIG, policy="static")
    assert result.operations == 1100


def test_tenants_get_separate_processes():
    tenants = [ZipfWorkload(100, 50, seed=1), ZipfWorkload(100, 50, seed=2)]
    workload = MultiTenantWorkload(tenants)
    machine = Machine(CONFIG, "static")
    run_workload(workload, CONFIG, machine=machine)
    pids = {tenant.process.pid for tenant in tenants}
    assert len(pids) == 2


def test_streams_interleave_in_batches():
    tenants = [ZipfWorkload(50, 64, seed=1), ZipfWorkload(50, 64, seed=2)]
    workload = MultiTenantWorkload(tenants, batch=8)
    machine = Machine(CONFIG, "static")
    workload.setup(machine)
    owners = [block.process.pid for block in workload.blocks() for __ in range(len(block))]
    # The first 8 belong to tenant 1, the next 8 to tenant 2, and so on.
    assert len(set(owners[:8])) == 1
    assert len(set(owners[8:16])) == 1
    assert owners[0] != owners[8]


def test_uneven_streams_drain_completely():
    tenants = [ZipfWorkload(50, 10, seed=1), ZipfWorkload(50, 200, seed=2)]
    workload = MultiTenantWorkload(tenants, batch=16)
    result = run_workload(workload, CONFIG, policy="static")
    assert result.operations == 210


def test_home_socket_pinning():
    tenants = [ZipfWorkload(100, 20, seed=1), ZipfWorkload(100, 20, seed=2)]
    workload = MultiTenantWorkload(tenants, home_sockets=[0, 1])
    machine = Machine(DUAL, "static")
    run_workload(workload, DUAL, machine=machine)
    assert tenants[0].process.home_socket == 0
    assert tenants[1].process.home_socket == 1


def test_footprint_sums_tenants():
    tenants = [ZipfWorkload(100, 10), ZipfWorkload(250, 10)]
    assert MultiTenantWorkload(tenants).footprint_pages() == 350


def test_name_mentions_tenants():
    workload = MultiTenantWorkload([ZipfWorkload(10, 10), UniformWorkload(10, 10)])
    assert "zipf" in workload.name and "uniform" in workload.name


# -- op-boundary derivation (regression) -------------------------------------


def test_marks_op_boundaries_derived_from_children():
    """Regression: the combinator used to inherit the class default
    (False) even when every child marked boundaries, so a phase that
    completed zero operations reported accesses/s as its throughput."""
    from repro.workloads.base import Workload

    class Unmarked(Workload):
        name = "unmarked"

        def setup(self, machine):
            pass

        def footprint_pages(self):
            return 0

        def blocks(self):
            return iter(())

    marking = MultiTenantWorkload([ZipfWorkload(10, 10), UniformWorkload(10, 10)])
    assert marking.marks_op_boundaries is True

    plain = MultiTenantWorkload([Unmarked(), Unmarked()])
    assert plain.marks_op_boundaries is False

    mixed = MultiTenantWorkload([Unmarked(), ZipfWorkload(10, 10)])
    assert mixed.marks_op_boundaries is True


def test_marking_combination_reports_ops_not_accesses():
    from repro.workloads.kvstore import SlabKVStore  # noqa: F401 (import check)
    from repro.workloads.multitenant import KVTenantWorkload

    tenants = [
        KVTenantWorkload("a", 60, 200, seed=1),
        KVTenantWorkload("b", 60, 200, seed=2),
    ]
    workload = MultiTenantWorkload(tenants)
    result = run_workload(workload, CONFIG, policy="static")
    # load (60 inserts) + 200 traffic ops per tenant; each op is several
    # accesses, so ops == the marked boundaries, not the access count.
    assert result.operations == 2 * 260
    assert result.accesses > result.operations


# -- the KV tenant workload --------------------------------------------------


def make_kv(**kwargs):
    from repro.workloads.multitenant import KVTenantWorkload

    defaults = dict(alpha=1.1, read_ratio=0.9, phases=(1.0,), seed=3)
    defaults.update(kwargs)
    return KVTenantWorkload("t", 80, 300, **defaults)


def test_kv_tenant_validation():
    from repro.workloads.multitenant import KVTenantWorkload

    with pytest.raises(ValueError):
        KVTenantWorkload("t", 0, 10)
    with pytest.raises(ValueError):
        KVTenantWorkload("t", 10, 10, alpha=0.0)
    with pytest.raises(ValueError):
        KVTenantWorkload("t", 10, 10, read_ratio=1.5)
    with pytest.raises(ValueError):
        KVTenantWorkload("t", 10, 10, phases=())
    with pytest.raises(ValueError):
        KVTenantWorkload("t", 10, 10, phases=(0.0, 0.0))


def test_kv_tenant_phase_budget_sums_exactly():
    workload = make_kv(phases=(1.0, 0.35, 1.0))
    assert sum(workload.phase_ops()) == workload.ops
    workload = make_kv(phases=(0.3, 0.3, 0.3, 0.1))
    assert sum(workload.phase_ops()) == workload.ops


def test_kv_tenant_stream_shape():
    workload = make_kv()
    machine = Machine(CONFIG, "static")
    workload.setup(machine)
    ops = list(workload.operations())
    # load phase inserts every record, then the traffic ops.
    assert len(ops) == workload.n_records + workload.ops
    fresh = make_kv()
    fresh.setup(Machine(CONFIG, "static"))
    boundaries = sum(int(block.op_boundary.sum()) for block in fresh.blocks())
    assert boundaries == fresh.n_records + fresh.ops


def test_kv_tenant_operations_are_its_blocks_cut_at_boundaries():
    ops = list(make_kv(phases=(1.0, 0.35)).operations())
    workload = make_kv(phases=(1.0, 0.35))
    workload.setup(Machine(CONFIG, "static"))
    rows, boundary = [], []
    for block in workload.blocks():
        rows += zip(block.vpage.tolist(), block.write.tolist(), block.lines.tolist())
        boundary += block.op_boundary.tolist()
    assert [touch for op in ops for touch in op] == rows
    ends = np.cumsum([len(op) for op in ops]) - 1
    assert np.flatnonzero(boundary).tolist() == ends.tolist()


def test_kv_tenant_runs_end_to_end():
    workload = make_kv(phases=(1.0, 0.2, 1.0))
    result = run_workload(workload, CONFIG, policy="multiclock")
    assert result.operations == workload.n_records + workload.ops
