"""Betweenness Centrality (GAPBS ``bc``).

Brandes' algorithm from a sample of source vertices: a forward BFS
accumulating shortest-path counts, then a reverse dependency pass.  BC
touches every property array twice per edge, making it the most
property-intensive kernel.
"""

from __future__ import annotations

import numpy as np

from repro.sim.rng import make_rng
from repro.workloads.gapbs.base import (
    NEIGH,
    OFF,
    GraphKernelWorkload,
    bfs_traversal,
    group_ranks,
    interleave,
    prop,
)
from repro.workloads.gapbs.graph import Graph

__all__ = ["BetweennessCentralityWorkload"]

# The four property arrays: depth, sigma, delta, centrality.
_DEPTH_R, _DEPTH_W = prop(0), prop(0, is_write=True)
_SIGMA_W = prop(1, is_write=True)
_DELTA_R, _DELTA_W = prop(2), prop(2, is_write=True)
_CENTRALITY_W = prop(3, is_write=True)


class BetweennessCentralityWorkload(GraphKernelWorkload):
    kernel = "bc"

    def __init__(
        self, graph: Graph, *, trials: int = 1, seed: int = 1, n_sources: int = 2
    ) -> None:
        super().__init__(graph, trials=trials, seed=seed)
        if n_sources <= 0:
            raise ValueError("n_sources must be positive")
        self.n_sources = n_sources

    def n_property_arrays(self) -> int:
        return 4  # depth, sigma, delta, centrality

    def kernel_params(self) -> tuple:
        return (self.n_sources,)

    def trial_events(self, trial: int):
        rng = make_rng(self.seed, f"bc-src-{trial}")
        passes = [
            self._brandes(int(source))
            for source in rng.integers(0, self.graph.n, size=self.n_sources).tolist()
        ]
        return *(np.concatenate(col) for col in zip(*passes)), {}

    def _brandes(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        """One source's events.

        Forward: the source's depth and sigma writes, then per visited u
        its offsets and neighbor range and, per neighbor v, a depth read,
        a depth write where v is discovered and a sigma write where v
        lies one level below u (a shortest-path edge).  Reverse, in the
        opposite visit order: per u its offsets and neighbor range, a
        delta read per shortest-path edge, its delta write and, past the
        source, its centrality write.
        """
        t = bfs_traversal(self.graph, source)
        order, degree, neigh, found = t.order, t.degree, t.neighbors, t.found
        below = t.depth[neigh] == np.repeat(t.depth[order] + 1, degree)
        ones = np.ones(len(order), dtype=np.int64)
        edge_v, edge_k = interleave(
            [(np.ones(len(neigh), dtype=np.int64), neigh, _DEPTH_R),
             (found, neigh[found], _DEPTH_W), (below, neigh[below], _SIGMA_W)]
        )
        n_below = t.owner_counts(below)
        fwd_v, fwd_k = interleave(
            [(ones, order, OFF), (ones, order, NEIGH),
             (degree + t.owner_counts(found) + n_below, edge_v, edge_k)]
        )
        # The reverse pass walks each u's neighbors in CSR order again.
        rev, rev_degree = order[::-1], degree[::-1]
        rev_edges = np.repeat((np.cumsum(degree) - degree)[::-1], rev_degree)
        rev_edges += group_ranks(rev_degree)
        rev_below = rev_edges[below[rev_edges]]
        past_source = rev != source
        rev_v, rev_k = interleave(
            [(ones, rev, OFF), (ones, rev, NEIGH),
             (n_below[::-1], neigh[rev_below], _DELTA_R), (ones, rev, _DELTA_W),
             (past_source, rev[past_source], _CENTRALITY_W)]
        )
        return (
            np.concatenate([[source, source], fwd_v, rev_v]),
            np.concatenate([[_DEPTH_W, _SIGMA_W], fwd_k, rev_k]),
        )
