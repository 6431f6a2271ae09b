"""Level-synchronous BFS and BC emission against the per-vertex loops.

``BFSWorkload`` and ``BetweennessCentralityWorkload`` expand a whole
BFS frontier at a time with numpy (``bfs_traversal``); the reference in
``gapbs_reference.py`` is the queue-driven loop that appends one event
per touch.  Their ``trial_events`` must agree exactly — vertex and kind
columns, dtypes and results — on degenerate graphs (one vertex, isolated
sources, two components), on regular shapes (a path, a star, K_8) and
on uniform and R-MAT graphs at several scales and seeds.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from gapbs_reference import bc_trial_events, bfs_trial_events

from repro.workloads.gapbs import BetweennessCentralityWorkload, BFSWorkload, Graph
from repro.workloads.gapbs.base import bfs_traversal

NO_EDGES = np.empty((0, 2), dtype=np.int64)

GRAPHS = {
    "n=1": lambda: Graph(1, NO_EDGES),
    "isolated": lambda: Graph(6, NO_EDGES),
    "two-components": lambda: Graph(
        9, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3)]
    ),
    "path": lambda: Graph(12, [(i, i + 1) for i in range(11)]),
    "star": lambda: Graph(10, [(0, i) for i in range(1, 10)]),
    "K_8": lambda: Graph(8, list(itertools.combinations(range(8), 2))),
    "uniform-30": lambda: Graph.uniform(30, 25, seed=4),
    "uniform-200": lambda: Graph.uniform(200, 900, seed=9),
    "rmat-5": lambda: Graph.rmat(5, 4, seed=1),
    "rmat-8": lambda: Graph.rmat(8, 8, seed=2),
    "rmat-10": lambda: Graph.rmat(10, 8, seed=5),
}

KERNELS = {
    "bfs": (BFSWorkload, bfs_trial_events),
    "bc": (BetweennessCentralityWorkload, bc_trial_events),
}


def assert_same_events(workload, reference, trials: int) -> None:
    for trial in range(trials):
        got = workload.trial_events(trial)
        want = reference(workload, trial)
        for column, expected in zip(got[:2], want[:2]):
            assert column.dtype == expected.dtype
            np.testing.assert_array_equal(column, expected)
        assert got[2] == want[2]


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_trial_events_equal_the_per_vertex_loop(kernel, graph_name):
    cls, reference = KERNELS[kernel]
    graph = GRAPHS[graph_name]()
    for seed in (1, 3):
        assert_same_events(cls(graph, trials=3, seed=seed), reference, trials=3)


def test_bc_with_more_sources_equals_the_per_vertex_loop():
    graph = Graph.rmat(7, 6, seed=3)
    workload = BetweennessCentralityWorkload(graph, trials=2, seed=2, n_sources=5)
    assert_same_events(workload, bc_trial_events, trials=2)


def test_an_isolated_source_visits_only_itself():
    traversal = bfs_traversal(GRAPHS["two-components"](), 8)
    assert traversal.order.tolist() == [8]
    assert traversal.degree.tolist() == [0]
    assert len(traversal.neighbors) == len(traversal.found) == 0
    assert (traversal.depth == -1).sum() == 8


def test_traversal_reaches_one_component_in_queue_order():
    traversal = bfs_traversal(GRAPHS["two-components"](), 4)
    assert traversal.order.tolist() == [4, 3, 5, 7, 6]
    assert traversal.depth.tolist() == [-1, -1, -1, 1, 0, 1, 2, 2, -1]
    # Each vertex past the source is found exactly once, where the queue
    # first meets it.
    assert traversal.neighbors[traversal.found].tolist() == [3, 5, 7, 6]
