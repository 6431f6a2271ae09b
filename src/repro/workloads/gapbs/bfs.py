"""Breadth-First Search (GAPBS ``bfs``).

Top-down BFS computing a parent array.  Each trial starts from a
different sampled source, as the GAPBS harness does.
"""

from __future__ import annotations

import numpy as np

from repro.sim.rng import make_rng
from repro.workloads.gapbs.base import (
    NEIGH,
    OFF,
    GraphKernelWorkload,
    bfs_traversal,
    interleave,
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
        """The source's parent write, then per visited u: read its
        offsets and neighbor range, read each neighbor's parent and
        write it where the neighbor is discovered."""
        rng = make_rng(self.seed, f"bfs-src-{trial}")
        source = int(rng.integers(0, self.graph.n))
        t = bfs_traversal(self.graph, source)
        neigh, found = t.neighbors, t.found
        ones = np.ones(len(t.order), dtype=np.int64)
        edge_v, edge_k = interleave(
            [(np.ones(len(neigh), dtype=np.int64), neigh, _READ),
             (found, neigh[found], _WRITE)]
        )
        v, k = interleave(
            [(ones, t.order, OFF), (ones, t.order, NEIGH),
             (t.degree + t.owner_counts(found), edge_v, edge_k)]
        )
        return np.insert(v, 0, source), np.insert(k, 0, _WRITE), {}
