"""Replayed GAPBS blocks drive exactly the runs that deciding them would.

A kernel's walked blocks are memoised on its candidate columns, which
the graph shares between every run of one kernel configuration, and a
later run replays a block when its heads' mapped mask matches.  Here
every kernel runs the five figure policies in turn on one graph, with a
swap-pressured run (whose unmaps change the masks, so recorded blocks
are decided again and overwritten) and a second hit rate interleaved,
and each run must equal the same run on a fresh graph: the same
``RunResult.to_dict()`` for the load and the trials, the same kernel
results and the same processed positions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.common import scaled_config
from repro.machine import Machine
from repro.run import run_workload
from repro.workloads.base import Workload
from repro.workloads.gapbs import KERNELS, Graph
from repro.workloads.gapbs import base as gapbs_base

RESULT_ATTRS = ("final_ranks", "final_components", "triangles")
#: (policy, swap pressure, cpu_cache_hit_rate), in the order they share a
#: graph: the five figure policies, with two other configurations between.
RUNS = (
    ("static", False, 0.85),
    ("multiclock", True, 0.85),
    ("multiclock", False, 0.85),
    ("nimble", False, 0.85),
    ("autotiering-cpm", False, 0.5),
    ("autotiering-cpm", False, 0.85),
    ("autotiering-opm", False, 0.85),
)


def _graph() -> Graph:
    return Graph.rmat(scale=6, edge_factor=4, seed=13)


class _Logged(Workload):
    """Passes a workload's blocks through, logging the processed positions."""

    def __init__(self, inner: Workload, log: list) -> None:
        self.inner = inner
        self.log = log
        self.name = inner.name
        self.marks_op_boundaries = inner.marks_op_boundaries

    def setup(self, machine: Machine) -> None:
        self.inner.setup(machine)

    def footprint_pages(self) -> int:
        return self.inner.footprint_pages()

    def blocks(self):
        for block in self.inner.blocks():
            yield block
            done = block.done
            self.log.append(np.stack([
                block.vpage[:done], block.write[:done],
                block.lines[:done], block.op_boundary[:done],
            ]))


def run(graph: Graph, kernel_name: str, policy: str, swap: bool, hit_rate: float):
    """Load, then two trials (one under swap pressure, where nearly every
    access faults); the results, kernel results and positions."""
    kernel = KERNELS[kernel_name](graph, trials=1 if swap else 2, seed=3)
    kernel.cpu_cache_hit_rate = hit_rate
    footprint = kernel.footprint_pages()
    if swap:
        dram, pm = max(2, footprint // 5), max(2, footprint // 2)
    else:
        dram, pm = max(2, int(footprint * 0.4)), footprint * 4
    config = scaled_config(
        dram_pages=dram, pm_pages=pm, interval_s=0.02, scan_budget_pages=8
    )
    machine = Machine(config, policy)
    log: list = []
    load = run_workload(_Logged(kernel.load_workload(), log), config, machine=machine)
    trials = run_workload(_Logged(kernel, log), config, machine=machine)
    return (
        [load.to_dict(), trials.to_dict()],
        {attr: getattr(kernel, attr, None) for attr in RESULT_ATTRS},
        np.concatenate(log, axis=1),
        machine.system.backing.swap_outs,
    )


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_shared_graph_runs_equal_fresh_graph_runs(kernel, monkeypatch):
    # Small blocks, so a trial spans many of them.
    monkeypatch.setattr(gapbs_base, "_BLOCK", 256)
    decide = gapbs_base.GraphKernelWorkload._decide
    decided = []

    def counting(self, cols, *args):
        if len(cols.head_pos):  # a trial block, not the load pass
            decided.append(cols)
        return decide(self, cols, *args)

    monkeypatch.setattr(gapbs_base.GraphKernelWorkload, "_decide", counting)
    shared = _graph()
    walks = []
    for policy, swap, hit_rate in RUNS:
        before = len(decided)
        results, computed, log, swap_outs = run(shared, kernel, policy, swap, hit_rate)
        walks.append(len(decided) - before)
        fresh = run(_graph(), kernel, policy, swap, hit_rate)
        assert results == fresh[0], (policy, swap, hit_rate)
        assert computed == fresh[1], (policy, swap, hit_rate)
        assert np.array_equal(log, fresh[2]), (policy, swap, hit_rate)
        assert (swap_outs > 0) == swap, (policy, swap_outs)
    # The first run decides every block, the swapped one re-decides
    # some, and later runs at a recorded hit rate replay most.
    assert walks[1] > 0 and walks[2] < walks[0] and walks[-1] < walks[0], walks
