"""Betweenness Centrality (GAPBS ``bc``).

Brandes' algorithm from a sample of source vertices: a forward BFS
accumulating shortest-path counts, then a reverse dependency pass.  BC
touches every property array twice per edge, making it the most
property-intensive kernel.
"""

from __future__ import annotations

from collections import deque

from repro.sim.rng import make_rng
from repro.workloads.gapbs.base import (
    NEIGH,
    OFF,
    GraphKernelWorkload,
    decode_events,
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
        events: list[int] = []
        for source in rng.integers(0, self.graph.n, size=self.n_sources).tolist():
            self._brandes(int(source), events.append)
        return (*decode_events(events), {})

    def _brandes(self, source: int, emit) -> None:
        graph = self.graph
        depth = {source: 0}
        sigma = {source: 1.0}
        order: list[int] = []
        queue = deque([source])
        emit(source << 4 | _DEPTH_W)
        emit(source << 4 | _SIGMA_W)
        while queue:
            u = queue.popleft()
            order.append(u)
            emit(u << 4 | OFF)
            emit(u << 4 | NEIGH)
            for v in graph.neigh(u).tolist():
                emit(v << 4 | _DEPTH_R)
                if v not in depth:
                    depth[v] = depth[u] + 1
                    sigma[v] = 0.0
                    queue.append(v)
                    emit(v << 4 | _DEPTH_W)
                if depth[v] == depth[u] + 1:
                    sigma[v] += sigma[u]
                    emit(v << 4 | _SIGMA_W)
        delta = {u: 0.0 for u in order}
        for u in reversed(order):
            emit(u << 4 | OFF)
            emit(u << 4 | NEIGH)
            for v in graph.neigh(u).tolist():
                if v in depth and depth[v] == depth[u] + 1 and sigma[v] > 0:
                    delta[u] += sigma[u] / sigma[v] * (1.0 + delta[v])
                    emit(v << 4 | _DELTA_R)
            emit(u << 4 | _DELTA_W)
            if u != source:
                emit(u << 4 | _CENTRALITY_W)
