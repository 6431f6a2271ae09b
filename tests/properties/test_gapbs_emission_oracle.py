"""The GAPBS block source, driven by the one driver, against the lazy
per-touch reference.

``gapbs_lazy_oracle.LazyEmitter`` is the emitter as it was: one
access record per touch and one scalar CPU-cache draw per mapped
cacheable touch, taken when the driver reaches it.  It is driven by a
per-access ``Machine.touch`` loop, so every draw sees the live table.
The kernels now build candidate columns once per graph and yield their
survivors as blocks; ``Machine.touch_batch`` records in each block
where it stopped and the emitter re-resolves the rest from there.  On
Hypothesis-generated graphs, seeds, hit rates, trial counts, policies,
memory sizes (some small enough to swap pages out mid-trial) and block
sizes, the positions the driver processed, concatenated, must equal the
oracle's access sequence, and both runs must end in the same counters,
clocks and kernel results.
"""

from __future__ import annotations

import pytest
from gapbs_lazy_oracle import LazyEmitter
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import scaled_config
from repro.machine import Machine
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


def _state(machine: Machine) -> tuple:
    clock = machine.clock
    return machine.stats.snapshot(), clock.now_ns, clock.app_ns, clock.system_ns


class _Driven:
    """Passes a block stream through, logging the positions the driver
    processed (read back from each block's ``done``) and each block's
    ``(first access index, done, len, live)``."""

    def __init__(self, blocks, log: list, spans: list) -> None:
        self.blocks = blocks
        self.log = log
        self.spans = spans

    def __iter__(self):
        for block in self.blocks:
            start = len(self.log)
            yield block
            done = block.done
            self.spans.append((start, done, len(block), block.live))
            self.log.extend(zip(
                block.vpage[:done].tolist(), block.write[:done].tolist(),
                block.lines[:done].tolist(), block.op_boundary[:done].tolist(),
            ))


def drive(kernel, policy, swap, *, lazy):
    """Load then run ``kernel``.  Returns per-phase end states, per-phase
    access logs, the kernel's computed results, the machine, the driven
    blocks' spans and the trial phase's fault indices (columnar only)."""
    machine = Machine(_config(kernel.footprint_pages(), swap), policy)
    kernel.setup(machine)
    logs: list[list] = [[], []]
    spans: list[list] = [[], []]
    states = []
    faults: list[int] = []
    if lazy:
        emitter = LazyEmitter(kernel)

        def load():
            yield from emitter.load_pass()
            kernel.loaded = True

        for phase, stream in enumerate((load(), emitter.accesses())):
            for access in stream:
                logs[phase].append(
                    (access.vpage, access.is_write, access.lines, access.op_boundary)
                )
                machine.touch(
                    access.process, access.vpage,
                    is_write=access.is_write, lines=access.lines,
                )
            states.append(_state(machine))
        source = emitter
    else:
        phases = (kernel.load_workload().blocks(), kernel.blocks())
        for phase, blocks in enumerate(phases):
            if phase:
                faults = _log_faults(machine)
            accesses, __ = machine.touch_batch(_Driven(blocks, logs[phase], spans[phase]))
            assert accesses == len(logs[phase])
            states.append(_state(machine))
        source = kernel
    computed = {attr: getattr(source, attr, None) for attr in RESULT_ATTRS}
    return states, logs, computed, machine, spans, faults


def _log_faults(machine: Machine) -> list[int]:
    """From now on, log the global access index of every page fault."""
    system = machine.system
    page_fault = system._page_fault
    faults: list[int] = []

    def logged(*args):
        faults.append(system._c_accesses_total.n)
        return page_fault(*args)

    system._page_fault = logged
    return faults


def _divergence(ours: list, theirs: list) -> int | None:
    """Index of the first differing access, or None.  (Comparing the
    logs with ``==`` would have pytest diff two huge lists on failure.)"""
    for i, (a, b) in enumerate(zip(ours, theirs)):
        if a != b:
            return i
    return None if len(ours) == len(theirs) else min(len(ours), len(theirs))


def _assert_same(got, expected) -> None:
    for phase, (ours, theirs) in enumerate(zip(got[1], expected[1])):
        at = _divergence(ours, theirs)
        assert at is None, (
            f"phase {phase}: access {at} differs: "
            f"{ours[at : at + 2]} vs {theirs[at : at + 2]}"
        )
    assert got[0] == expected[0], "run states diverged"
    assert got[2] == expected[2], "kernel results diverged"


def _columnar(graph, name, trials, seed, hit_rate, policy, swap, block):
    # Tiny blocks put block edges everywhere, between a straddling
    # offsets read's two pages included.
    saved, gapbs_base._BLOCK = gapbs_base._BLOCK, block
    try:
        return drive(
            _kernel(graph, name, trials, seed, hit_rate), policy, swap, lazy=False
        )
    finally:
        gapbs_base._BLOCK = saved


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
    got = _columnar(graph, kernel, trials, seed, hit_rate, policy, swap, block)
    _assert_same(got, expected)


@pytest.mark.parametrize("where", ("first", "last"))
def test_fault_at_a_block_edge_matches_lazy_oracle(where):
    """Under swap pressure, with blocks of two candidates, some trial
    block with heads ahead faults on its first position and some on its
    last (a swapped-out page coming back); the run still matches."""
    graph = Graph.rmat(scale=6, edge_factor=4, seed=3)
    args = ("bfs", 1, 1, 0.85, "multiclock", True)
    expected = drive(_kernel(graph, *args[:4]), *args[4:], lazy=True)
    got = _columnar(graph, *args, 2)
    states, __, __c, machine, spans, faults = got
    base = states[0][0]["accesses.total"]
    edges = {
        base + (start if where == "first" else start + done - 1)
        for start, done, size, live in spans[1]
        if size > 1 and live > 0 and (where == "first" or done == size)
    }
    assert edges & set(faults), f"no trial fault at a block's {where} position"
    assert machine.system.backing.swap_ins > 0
    _assert_same(got, expected)


@pytest.mark.parametrize("block", (1, 2, 3))
def test_block_edges_never_split_a_straddling_read(block):
    """Vertex 511's ``offsets`` read straddles pages 0 and 1; PR reads it
    every iteration, and at a 0.99 hit rate the head is usually absorbed,
    taking its follower with it, whatever block edge falls between them."""
    graph = Graph.rmat(scale=9, edge_factor=4, seed=2)
    expected = drive(_kernel(graph, "pr", 1, 1, 0.99), "static", False, lazy=True)
    got = _columnar(graph, "pr", 1, 1, 0.99, "static", False, block)
    assert _divergence(got[1][1], expected[1][1]) is None
    assert got[0] == expected[0]


def test_swap_pressure_unmaps_mid_trial():
    """The swap configs really take pages away under a running trial,
    and the driver really ends blocks early."""
    graph = Graph.rmat(scale=8, edge_factor=4, seed=3)
    kernel = _kernel(graph, "bc", 2, 1, 0.85)
    states, __, __c, machine, spans, __f = drive(kernel, "multiclock", True, lazy=False)
    assert machine.system.backing.swap_outs > 0
    assert states[1][0]["faults.major"] > states[0][0].get("faults.major", 0)
    assert any(done < size for __, done, size, __l in spans[1])


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
