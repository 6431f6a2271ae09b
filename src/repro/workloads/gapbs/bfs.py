"""Breadth-First Search (GAPBS ``bfs``).

Top-down BFS computing a parent array.  Each trial starts from a
different sampled source, as the GAPBS harness does.
"""

from __future__ import annotations

from repro.sim.rng import make_rng
from repro.workloads.gapbs.base import (
    NEIGH,
    OFF,
    GraphKernelWorkload,
    decode_events,
    prop,
)

__all__ = ["BFSWorkload"]

_READ = prop(0)
_WRITE = prop(0, is_write=True)


class BFSWorkload(GraphKernelWorkload):
    kernel = "bfs"

    def n_property_arrays(self) -> int:
        return 1  # parent

    def trial_events(self, trial: int):
        graph = self.graph
        rng = make_rng(self.seed, f"bfs-src-{trial}")
        source = int(rng.integers(0, graph.n))
        parent = {source: source}
        events = [source << 4 | _WRITE]
        emit = events.append
        frontier = [source]
        while frontier:
            next_frontier = []
            for u in frontier:
                emit(u << 4 | OFF)
                emit(u << 4 | NEIGH)
                for v in graph.neigh(u).tolist():
                    emit(v << 4 | _READ)
                    if v not in parent:
                        parent[v] = u
                        emit(v << 4 | _WRITE)
                        next_frontier.append(v)
            frontier = next_frontier
        return (*decode_events(events), {})
