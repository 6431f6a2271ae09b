"""Columnar GAPBS emission against the lazy per-touch reference.

``gapbs_lazy_oracle.LazyEmitter`` is the emitter as it was: one
``PageAccess`` per touch and one scalar CPU-cache draw per mapped
cacheable touch, taken when the driver reaches it.  The kernels now
build candidate columns once per graph and resolve absorption in
blocks.  On Hypothesis-generated graphs, seeds, hit rates, trial
counts, policies and memory sizes (some small enough to swap pages out
mid-trial) both must drive the machine through the same access sequence
to the same ``RunResult`` and the same kernel results.
"""

from __future__ import annotations

import pytest
from gapbs_lazy_oracle import LazyEmitter, StreamShim
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import scaled_config
from repro.machine import Machine
from repro.run import run_workload
from repro.workloads.gapbs import KERNELS, Graph
from repro.workloads.gapbs import base as gapbs_base

RESULT_ATTRS = ("final_ranks", "final_components", "triangles")


def _config(footprint: int, swap: bool):
    if swap:
        dram, pm = max(2, footprint // 5), max(2, footprint // 2)
    else:
        dram, pm = max(2, int(footprint * 0.4)), footprint * 4
    return scaled_config(
        dram_pages=dram, pm_pages=pm, interval_s=0.02, scan_budget_pages=8
    )


def _kernel(graph, name, trials, seed, hit_rate):
    kernel = KERNELS[name](graph, trials=trials, seed=seed)
    kernel.cpu_cache_hit_rate = hit_rate
    return kernel


def drive(kernel, policy, swap, *, lazy):
    """Load then run ``kernel``; returns results, the access log and the
    kernel's computed results."""
    config = _config(kernel.footprint_pages(), swap)
    machine = Machine(config, policy)
    if lazy:
        emitter = LazyEmitter(kernel)

        def load():
            yield from emitter.load_pass()
            kernel.loaded = True

        trials = emitter.accesses
        source = emitter
    else:
        load = kernel.load_workload().accesses
        trials = kernel.accesses
        source = kernel
    phases = [
        StreamShim(kernel, f"{kernel.name}-load", load),
        StreamShim(kernel, kernel.name, trials),
    ]
    results = [run_workload(p, config, machine=machine).to_dict() for p in phases]
    computed = {attr: getattr(source, attr, None) for attr in RESULT_ATTRS}
    return results, [p.log for p in phases], computed, machine


def _divergence(ours: list, theirs: list) -> int | None:
    """Index of the first differing access, or None.  (Comparing the
    logs with ``==`` would have pytest diff two huge lists on failure.)"""
    for i, (a, b) in enumerate(zip(ours, theirs)):
        if a != b:
            return i
    return None if len(ours) == len(theirs) else min(len(ours), len(theirs))


@settings(max_examples=30, deadline=None)
@given(
    scale=st.integers(4, 9),
    graph_seed=st.integers(0, 1000),
    kernel=st.sampled_from(sorted(KERNELS)),
    seed=st.integers(0, 1000),
    hit_rate=st.sampled_from((0.0, 0.3, 0.85, 0.99)),
    trials=st.integers(1, 3),
    policy=st.sampled_from(("static", "multiclock", "autotiering-cpm", "autonuma")),
    swap=st.booleans(),
    block=st.sampled_from((1, 2, 7, 4096)),
)
def test_columnar_emission_matches_lazy_oracle(
    scale, graph_seed, kernel, seed, hit_rate, trials, policy, swap, block
):
    graph = Graph.rmat(scale=scale, edge_factor=4, seed=graph_seed)
    expected = drive(
        _kernel(graph, kernel, trials, seed, hit_rate), policy, swap, lazy=True
    )
    # Tiny blocks put block edges everywhere, between a straddling
    # offsets read's two pages included.
    saved, gapbs_base._BLOCK = gapbs_base._BLOCK, block
    try:
        got = drive(
            _kernel(graph, kernel, trials, seed, hit_rate), policy, swap, lazy=False
        )
    finally:
        gapbs_base._BLOCK = saved
    for phase, (ours, theirs) in enumerate(zip(got[1], expected[1])):
        at = _divergence(ours, theirs)
        assert at is None, (
            f"phase {phase}: access {at} differs: "
            f"{ours[at : at + 2]} vs {theirs[at : at + 2]}"
        )
    assert got[0] == expected[0], "run results diverged"
    assert got[2] == expected[2], "kernel results diverged"


@pytest.mark.parametrize("block", (1, 2, 3))
def test_block_edges_never_split_a_straddling_read(block):
    """Vertex 511's ``offsets`` read straddles pages 0 and 1; PR reads it
    every iteration, and at a 0.99 hit rate the head is usually absorbed,
    taking its follower with it, whatever block edge falls between them."""
    graph = Graph.rmat(scale=9, edge_factor=4, seed=2)
    expected = drive(_kernel(graph, "pr", 1, 1, 0.99), "static", False, lazy=True)
    saved, gapbs_base._BLOCK = gapbs_base._BLOCK, block
    try:
        got = drive(_kernel(graph, "pr", 1, 1, 0.99), "static", False, lazy=False)
    finally:
        gapbs_base._BLOCK = saved
    assert _divergence(got[1][1], expected[1][1]) is None
    assert got[0] == expected[0]


def test_swap_pressure_unmaps_mid_trial():
    """The swap configs really take pages away under a running trial."""
    graph = Graph.rmat(scale=8, edge_factor=4, seed=3)
    kernel = _kernel(graph, "bc", 2, 1, 0.85)
    results, __, __c, machine = drive(kernel, "multiclock", True, lazy=False)
    assert machine.system.backing.swap_outs > 0
    assert results[1]["counters"]["faults.major"] > 0


def test_memo_hit_and_miss_agree():
    """Columns rebuilt for an evicted configuration, or reused from the
    graph's memo, drive identical runs."""
    graph = Graph.rmat(scale=7, edge_factor=4, seed=11)

    def run(name, seed):
        kernel = _kernel(graph, name, 2, seed, 0.85)
        return drive(kernel, "multiclock", False, lazy=False)[:3]

    miss = run("bfs", 4)
    hit = run("bfs", 4)
    assert graph.emission_memo["config"] == (KERNELS["bfs"], 4, ())
    run("pr", 4)  # evicts the bfs columns
    assert graph.emission_memo["config"][0] is KERNELS["pr"]
    rebuilt = run("bfs", 4)
    assert miss == hit == rebuilt
