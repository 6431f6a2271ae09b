"""Single-Source Shortest Paths (GAPBS ``sssp``).

Dijkstra with a binary heap over integer edge weights (GAPBS uses
delta-stepping for parallelism; the sequential access pattern — scan a
settled vertex's neighbor and weight ranges, then scattered distance
relaxations — is the same, which is what the tiering policies see).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.sim.rng import make_rng
from repro.workloads.gapbs.base import (
    NEIGH,
    OFF,
    WEIGHT,
    GraphKernelWorkload,
    decode_events,
    prop,
)
from repro.workloads.gapbs.graph import Graph

__all__ = ["SSSPWorkload"]

_READ = prop(0)
_WRITE = prop(0, is_write=True)


class SSSPWorkload(GraphKernelWorkload):
    kernel = "sssp"

    def __init__(self, graph: Graph, *, trials: int = 1, seed: int = 1) -> None:
        super().__init__(graph, trials=trials, seed=seed)
        rng = make_rng(seed, "sssp-weights")
        self.weights = rng.integers(1, 256, size=graph.m_directed, dtype=np.int32)

    def n_property_arrays(self) -> int:
        return 1  # dist

    def uses_weights(self) -> bool:
        return True

    def trial_events(self, trial: int):
        graph = self.graph
        rng = make_rng(self.seed, f"sssp-src-{trial}")
        source = int(rng.integers(0, graph.n))
        weights = self.weights.tolist()
        offsets = graph.offsets.tolist()
        dist = {source: 0}
        events = [source << 4 | _WRITE]
        emit = events.append
        heap = [(0, source)]
        settled = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in settled:
                continue
            settled.add(u)
            emit(u << 4 | OFF)
            emit(u << 4 | NEIGH)
            emit(u << 4 | WEIGHT)
            lo = offsets[u]
            for k, v in enumerate(graph.neigh(u).tolist()):
                nd = d + weights[lo + k]
                emit(v << 4 | _READ)
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    emit(v << 4 | _WRITE)
                    heapq.heappush(heap, (nd, v))
        return (*decode_events(events), {})
