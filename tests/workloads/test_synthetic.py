"""Unit tests for the synthetic workloads."""

from typing import NamedTuple

import pytest

from repro.machine import Machine
from repro.run import run_workload
from repro.sim.config import SimulationConfig
from repro.workloads.synthetic import (
    SequentialScanWorkload,
    ShiftingHotSetWorkload,
    UniformWorkload,
    ZipfWorkload,
)

CONFIG = SimulationConfig(dram_pages=(256,), pm_pages=(1024,))


class Row(NamedTuple):
    vpage: int
    is_write: bool
    lines: int
    op_boundary: bool


def collect(workload):
    machine = Machine(CONFIG, "static")
    workload.setup(machine)
    return [
        Row(*row)
        for block in workload.blocks()
        for row in zip(
            block.vpage.tolist(), block.write.tolist(),
            block.lines.tolist(), block.op_boundary.tolist(),
        )
    ]


def test_parameter_validation():
    with pytest.raises(ValueError):
        ZipfWorkload(pages=0, ops=10)
    with pytest.raises(ValueError):
        ZipfWorkload(pages=10, ops=10, alpha=0)
    with pytest.raises(ValueError):
        UniformWorkload(pages=10, ops=10, write_ratio=1.5)
    with pytest.raises(ValueError):
        ShiftingHotSetWorkload(pages=10, ops=10, hot_fraction=0.0)
    with pytest.raises(ValueError):
        ZipfWorkload(pages=10, ops=10, lines=0)


def test_op_counts_exact():
    for workload in (
        ZipfWorkload(pages=100, ops=777),
        UniformWorkload(pages=100, ops=777),
        SequentialScanWorkload(pages=100, ops=777),
        ShiftingHotSetWorkload(pages=100, ops=777, phase_ops=100),
    ):
        assert len(collect(workload)) == 777


def test_accesses_stay_in_range():
    accesses = collect(UniformWorkload(pages=50, ops=500))
    assert all(0 <= access.vpage < 50 for access in accesses)


def test_zipf_skew():
    from collections import Counter

    accesses = collect(ZipfWorkload(pages=500, ops=5000, alpha=1.2))
    counts = Counter(a.vpage for a in accesses)
    ranked = sorted(counts.values(), reverse=True)
    assert sum(ranked[:50]) > 0.5 * 5000


def test_sequential_scan_order():
    accesses = collect(SequentialScanWorkload(pages=10, ops=25))
    assert [a.vpage for a in accesses][:12] == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1]


def test_write_ratio_honored():
    accesses = collect(UniformWorkload(pages=100, ops=4000, write_ratio=0.5))
    writes = sum(1 for a in accesses if a.is_write)
    assert 0.4 < writes / 4000 < 0.6


def test_lines_propagate():
    accesses = collect(ZipfWorkload(pages=10, ops=5, lines=13))
    assert all(a.lines == 13 for a in accesses)


def test_hot_set_shifts_between_phases():
    from collections import Counter

    workload = ShiftingHotSetWorkload(
        pages=1000, ops=20_000, phase_ops=10_000, hot_fraction=0.05, seed=2
    )
    accesses = collect(workload)
    first = Counter(a.vpage for a in accesses[:10_000])
    second = Counter(a.vpage for a in accesses[10_000:])
    top_first = {p for p, __ in first.most_common(50)}
    top_second = {p for p, __ in second.most_common(50)}
    assert len(top_first & top_second) < 25


def test_determinism():
    a = [(x.vpage, x.is_write) for x in collect(ZipfWorkload(pages=100, ops=200, seed=4))]
    b = [(x.vpage, x.is_write) for x in collect(ZipfWorkload(pages=100, ops=200, seed=4))]
    assert a == b


def test_run_workload_end_to_end():
    result = run_workload(ZipfWorkload(pages=300, ops=1000), CONFIG, policy="static")
    assert result.operations == 1000
    assert result.accesses == 1000
    assert result.elapsed_ns > 0
    assert "ops" in result.summary()
