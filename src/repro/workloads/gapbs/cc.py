"""Connected Components (GAPBS ``cc``).

Label propagation: every vertex repeatedly adopts the smallest component
id among its neighbors until a fixed point.  The per-round full-graph
sweep is the most sequential access pattern of the six kernels.
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

__all__ = ["ConnectedComponentsWorkload"]


class ConnectedComponentsWorkload(GraphKernelWorkload):
    kernel = "cc"
    trial_invariant = True

    def __init__(
        self, graph: Graph, *, trials: int = 1, seed: int = 1, max_rounds: int = 12
    ) -> None:
        super().__init__(graph, trials=trials, seed=seed)
        if max_rounds <= 0:
            raise ValueError("max_rounds must be positive")
        self.max_rounds = max_rounds
        self.final_components: list[int] | None = None

    def n_property_arrays(self) -> int:
        return 1  # component id

    def kernel_params(self) -> tuple:
        return (self.max_rounds,)

    def trial_events(self, trial: int):
        graph = self.graph
        n = graph.n
        degree = np.diff(graph.offsets)
        vertices = np.arange(n)
        adjacency = [graph.neigh(u).tolist() for u in range(n)]
        comp = list(range(n))
        rounds = []
        for __round in range(self.max_rounds):
            # Labels update in place, so a vertex sees the labels its
            # lower-numbered neighbors adopted earlier in this round.
            wrote = np.zeros(n, dtype=bool)
            for u in range(n):
                best = comp[u]
                for v in adjacency[u]:
                    if comp[v] < best:
                        best = comp[v]
                if best < comp[u]:
                    comp[u] = best
                    wrote[u] = True
            # Per vertex: read offsets[u] and comp[u], its neighbor range
            # and every neighbor's label, then write comp[u] if it fell.
            rounds.append(interleave([
                (np.ones(n), vertices, OFF),
                (np.ones(n), vertices, prop(0)),
                (np.ones(n), vertices, NEIGH),
                (degree, graph.neighbors, prop(0)),
                (wrote, vertices[wrote], prop(0, is_write=True)),
            ]))
            if not wrote.any():
                break
        ev_v, ev_k = (np.concatenate(cols) for cols in zip(*rounds))
        return ev_v, ev_k, {"final_components": comp}
