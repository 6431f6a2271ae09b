"""Tests for the top-level Machine and run_workload API."""

import pytest

from repro import Machine, RunResult, SimulationConfig, run_workload
from repro.workloads.synthetic import UniformWorkload, ZipfWorkload

CONFIG = SimulationConfig(dram_pages=(128,), pm_pages=(512,))


def test_machine_exposes_config_and_stats():
    machine = Machine(CONFIG, "static")
    assert machine.config is machine.system.config
    assert machine.stats is machine.system.stats
    assert machine.clock is machine.system.clock


def test_memory_report_covers_all_nodes():
    machine = Machine(CONFIG, "multiclock")
    report = machine.memory_report()
    assert set(report) == {"node0/DRAM", "node1/PM"}
    for entry in report.values():
        assert entry["used"] + entry["free"] == entry["capacity"]


def test_run_result_fields():
    result = run_workload(ZipfWorkload(pages=200, ops=500), CONFIG, policy="static")
    assert isinstance(result, RunResult)
    assert result.workload == "zipf"
    assert result.policy == "static"
    assert result.operations == 500
    assert result.elapsed_ns == result.app_ns + result.system_ns
    assert result.throughput_ops > 0
    assert 0.0 <= result.dram_access_fraction <= 1.0


def test_run_on_prebuilt_machine_counts_deltas():
    machine = Machine(CONFIG, "static")
    first = run_workload(UniformWorkload(pages=100, ops=300), CONFIG, machine=machine)
    second = run_workload(UniformWorkload(pages=100, ops=300, seed=9), CONFIG, machine=machine)
    # Phase results report per-phase counters, not machine lifetime.
    assert first.counters["accesses.total"] == 300
    assert second.counters["accesses.total"] == 300
    # The second phase faults less: pages are already resident.
    assert second.counters.get("faults.minor", 0) < first.counters["faults.minor"]


class _NoBoundaryWorkload(UniformWorkload):
    """A stream that never marks op_boundary (e.g. a raw page trace)."""

    name = "no-boundary"
    # Deliberately strips the markers its parent class declares.
    marks_op_boundaries = False

    def blocks(self):
        for block in super().blocks():
            block.op_boundary[:] = False
            yield block


def test_ops_fallback_is_explicit():
    """When a stream carries no operation markers, RunResult falls back
    to the access count — and says so, instead of silently conflating
    operations with accesses."""
    result = run_workload(
        _NoBoundaryWorkload(pages=100, ops=300), CONFIG, policy="static"
    )
    assert result.ops_fallback
    assert result.operations == result.accesses == 300


def test_ops_fallback_false_for_marked_streams():
    result = run_workload(
        ZipfWorkload(pages=100, ops=300), CONFIG, policy="static"
    )
    assert not result.ops_fallback
    assert result.operations == 300


class _ZeroOpWorkload(UniformWorkload):
    """Marks op boundaries in general, but this phase completes none —
    e.g. a sequence phase cut off mid-operation."""

    name = "zero-op"

    def blocks(self):
        for block in super().blocks():
            block.op_boundary[:] = False
            yield block


def test_zero_op_phase_of_marked_workload_is_not_a_fallback():
    """A boundary-marking workload with zero completed operations must
    report operations == 0, not silently switch to accesses/s."""
    assert _ZeroOpWorkload.marks_op_boundaries  # inherited declaration
    result = run_workload(
        _ZeroOpWorkload(pages=100, ops=300), CONFIG, policy="static"
    )
    assert not result.ops_fallback
    assert result.operations == 0
    assert result.accesses == 300
    assert result.throughput_ops == 0.0


def test_unknown_policy_name():
    with pytest.raises(KeyError):
        Machine(CONFIG, "bogus")


def test_drain_daemons_runs_overdue_work():
    machine = Machine(CONFIG, "multiclock")
    machine.system.clock.advance_app(10 ** 10)  # sleep 10 virtual seconds
    machine.drain_daemons()
    assert machine.stats.get("kpromoted.runs") > 0


def test_summary_is_one_line():
    result = run_workload(ZipfWorkload(pages=100, ops=200), CONFIG, policy="static")
    assert "\n" not in result.summary()
