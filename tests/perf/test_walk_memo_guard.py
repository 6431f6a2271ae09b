"""The GAPBS walk decides each block once per kernel configuration.

Fig 6 runs one kernel configuration under five policies on one graph.
The first run decides every block's survivors and records them on the
candidate columns; a later run whose heads' mapped masks match replays
them, adding no entry.  A run whose masks diverge (swap pressure
unmaps pages mid-trial) decides its own blocks from there on and
records none of them, so the memo holds the first run's blocks however
many runs follow.  A replayed block hands
the driver the recorded columns, which are read-only.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import scaled_config
from repro.machine import Machine
from repro.run import run_workload
from repro.workloads.gapbs import KERNELS, Graph
from repro.workloads.gapbs import base as gapbs_base
from repro.workloads.gapbs.base import TouchColumns

FIGURE_POLICIES = ("static", "multiclock", "nimble", "autotiering-cpm", "autotiering-opm")


def _run(graph: Graph, kernel_name: str, policy: str, *, swap: bool = False):
    """Fig 6's load and trials (or a swap-pressured twin); the kernel."""
    kernel = KERNELS[kernel_name](graph, trials=2, seed=3)
    footprint = kernel.footprint_pages()
    if swap:
        dram, pm = max(2, footprint // 5), max(2, footprint // 2)
    else:
        dram, pm = max(24, int(footprint * 0.4)), footprint * 4
    config = scaled_config(
        dram_pages=dram, pm_pages=pm, interval_s=0.1, scan_budget_pages=64
    )
    machine = Machine(config, policy)
    run_workload(kernel.load_workload(), config, machine=machine)
    run_workload(kernel, config, machine=machine)
    return kernel


def _entries(graph: Graph) -> dict:
    """Every walked block of the graph's memoised columns, by (trial, key)."""
    return {
        (trial, key): block
        for trial, cols in graph.emission_memo.items()
        if isinstance(cols, TouchColumns)
        for key, block in cols.walked.items()
    }


class _Decides:
    """Counts ``GraphKernelWorkload._decide`` calls on trial columns."""

    def __init__(self, monkeypatch) -> None:
        self.calls = 0
        decide = gapbs_base.GraphKernelWorkload._decide

        def counting(kernel, cols, *args):
            self.calls += bool(len(cols.head_pos))
            return decide(kernel, cols, *args)

        monkeypatch.setattr(gapbs_base.GraphKernelWorkload, "_decide", counting)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_later_policies_replay_every_block(kernel, monkeypatch):
    graph = Graph.rmat(scale=9, edge_factor=4, seed=7)
    decides = _Decides(monkeypatch)
    _run(graph, kernel, FIGURE_POLICIES[0])
    recorded = _entries(graph)
    assert recorded and decides.calls == len(recorded)
    for policy in FIGURE_POLICIES[1:]:
        _run(graph, kernel, policy)
        entries = _entries(graph)
        assert entries.keys() == recorded.keys(), policy
        assert all(entries[k] is recorded[k] for k in recorded), policy
    assert decides.calls == len(recorded)


def _same(after: dict, before: dict) -> bool:
    return after.keys() == before.keys() and all(after[k] is before[k] for k in before)


def test_a_diverging_run_decides_but_records_nothing(monkeypatch):
    graph = Graph.rmat(scale=6, edge_factor=4, seed=13)
    decides = _Decides(monkeypatch)
    _run(graph, "pr", "multiclock")
    before = _entries(graph)
    decides.calls = 0
    kernel = _run(graph, "pr", "multiclock", swap=True)
    assert kernel.machine.system.backing.swap_outs > 0
    assert decides.calls, "swap pressure changed no recorded block"
    assert _same(_entries(graph), before)
    # The figure configuration's blocks survived: a later figure run
    # replays every one of them.
    decides.calls = 0
    _run(graph, "pr", "static")
    assert decides.calls == 0


@pytest.mark.parametrize("kernel", ["pr", "sssp"])
def test_swap_pressured_runs_keep_one_runs_blocks(kernel, monkeypatch):
    """Only the first run records; later runs leave its path at their own
    rewind positions and draw indices (two trials each) and add nothing."""
    graph = Graph.rmat(scale=6, edge_factor=4, seed=13)
    decides = _Decides(monkeypatch)
    assert _run(graph, kernel, "multiclock", swap=True).machine.system.backing.swap_outs
    first = _entries(graph)
    assert first and decides.calls == len(first)
    decides.calls = 0
    for policy in ("static", "nimble", "autotiering-cpm", "multiclock"):
        _run(graph, kernel, policy, swap=True)
        assert _same(_entries(graph), first), policy
    assert decides.calls, "no later run left the first run's path"


def test_a_replayed_blocks_columns_are_read_only():
    graph = Graph.rmat(scale=6, edge_factor=4, seed=13)
    _run(graph, "bfs", "static")
    kernel = KERNELS["bfs"](graph, trials=2, seed=3)
    machine = Machine(scaled_config(dram_pages=64, pm_pages=256), "static")
    run_workload(kernel.load_workload(), machine.config, machine=machine)
    block = next(iter(kernel.blocks()))
    assert any(block.vpage is b.vpage for b in _entries(graph).values())
    for column in (block.vpage, block.write, block.lines, block.op_boundary, block.slots):
        with pytest.raises(ValueError):
            column[0] = column[0]
