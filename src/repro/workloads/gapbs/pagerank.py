"""PageRank (GAPBS ``pr``).

Push-style power iteration: each vertex streams its neighbor range and
scatters contributions into the next-rank array.  The sequential
offset/neighbor scans plus the scattered property writes give PR its
characteristic mixed locality.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.gapbs.base import (
    NEIGH,
    OFF,
    GraphKernelWorkload,
    interleave,
    prop,
)
from repro.workloads.gapbs.graph import Graph

__all__ = ["PageRankWorkload"]

DAMPING = 0.85


class PageRankWorkload(GraphKernelWorkload):
    kernel = "pr"
    trial_invariant = True

    def __init__(
        self, graph: Graph, *, trials: int = 1, seed: int = 1, iterations: int = 3
    ) -> None:
        super().__init__(graph, trials=trials, seed=seed)
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        self.iterations = iterations
        self.final_ranks: list[float] | None = None

    def n_property_arrays(self) -> int:
        return 2  # rank, next_rank

    def kernel_params(self) -> tuple:
        return (self.iterations,)

    def trial_events(self, trial: int):
        graph = self.graph
        n = graph.n
        degree = np.diff(graph.offsets)
        vertices = np.arange(n)
        has_edges = degree > 0
        # Per vertex: read rank[u] and offsets[u]; then, unless u is
        # isolated, read its neighbor range and write next_rank[v] for
        # every neighbor v.
        ev_v, ev_k = interleave([
            (np.ones(n), vertices, prop(0)),
            (np.ones(n), vertices, OFF),
            (has_edges, vertices[has_edges], NEIGH),
            (degree, graph.neighbors, prop(1, is_write=True)),
        ])
        # The scatter in the loop's order: np.add.at accumulates repeated
        # indices one at a time, so every rank is the same float sum.
        sources = np.repeat(vertices, degree)
        rank = np.full(n, 1.0 / n)
        base = (1.0 - DAMPING) / n
        for __iteration in range(self.iterations):
            next_rank = np.full(n, base)
            share = DAMPING * rank / np.maximum(degree, 1)  # isolated: unused
            np.add.at(next_rank, graph.neighbors, share[sources])
            rank = next_rank
        return (
            np.tile(ev_v, self.iterations),
            np.tile(ev_k, self.iterations),
            {"final_ranks": rank.tolist()},
        )
