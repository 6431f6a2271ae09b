"""The acceptance bar: zero counter/trace mismatches on the chaos matrix.

Runs the same fault schedule as ``tests/chaos/test_chaos_matrix.py`` with
the tracepoint layer armed on every cell, so the lifecycle auditor gets
to disagree with the StatsBook under copy failures, retries, capacity
loss, and OOM pressure — the conditions accounting bugs hide in.
"""

import pytest

from repro.faults import CapacityLoss, CopyFailures, FaultPlan, run_chaos
from repro.policies.base import _REGISTRY


def chaos_config():
    return {"dram_pages": 256, "pm_pages": 2048, "interval": 0.002, "seed": 42}


def acceptance_plan(seed=42):
    return FaultPlan(seed=seed, events=(
        CopyFailures(start_s=0.0005, end_s=30.0, rate=0.2),
        CapacityLoss(start_s=0.002, end_s=0.008, node_id=1, frames=512),
    ))


def workloads(ops=6000, pages=800):
    return [{"kind": "zipf", "pages": pages, "ops": ops, "seed": 42}]


@pytest.mark.parametrize("policy", sorted(_REGISTRY))
def test_audit_is_clean_under_the_acceptance_schedule(policy):
    report = run_chaos(
        [policy], workloads(), acceptance_plan(), chaos_config(),
        trace_capacity=1 << 20,
    )
    (cell,) = report.cells
    audit = cell.trace_audit
    assert audit is not None
    assert audit["mismatches"] == 0, audit["mismatch_details"]
    assert audit["complete"], "ring sized for the whole run overwrote events"
    assert audit["events_replayed"] > 0
    assert cell.clean
    assert cell.to_dict()["trace_audit"] == audit


def test_untraced_matrix_keeps_its_report_shape():
    report = run_chaos(["static"], workloads(ops=1500, pages=300),
                       acceptance_plan(), chaos_config())
    (cell,) = report.cells
    assert cell.trace_audit is None
    assert "trace_audit" not in cell.to_dict()


def test_audit_mismatch_marks_the_cell_dirty():
    report = run_chaos(["static"], workloads(ops=1500, pages=300),
                       acceptance_plan(), chaos_config(), trace_capacity=1 << 20)
    (cell,) = report.cells
    assert cell.clean
    dirty = type(cell)(
        **{**cell.__dict__, "trace_audit": {**cell.trace_audit, "mismatches": 2}}
    )
    assert not dirty.clean
