"""Triangle Counting (GAPBS ``tc``).

Merge-based counting: for every ordered edge (u, v) with u < v, intersect
the two sorted adjacency lists.  TC re-reads neighbor ranges constantly,
so its working set is dominated by the CSR edge array.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.gapbs.base import (
    NEIGH,
    OFF,
    GraphKernelWorkload,
    group_ranks,
    interleave,
    prop,
)
from repro.workloads.gapbs.graph import Graph

__all__ = ["TriangleCountWorkload"]


class TriangleCountWorkload(GraphKernelWorkload):
    kernel = "tc"
    trial_invariant = True

    def __init__(self, graph: Graph, *, trials: int = 1, seed: int = 1) -> None:
        super().__init__(graph, trials=trials, seed=seed)
        self.triangles: int | None = None

    def n_property_arrays(self) -> int:
        return 1  # per-vertex counts

    def trial_events(self, trial: int):
        graph = self.graph
        n = graph.n
        offsets = graph.offsets
        neighbors = graph.neighbors.astype(np.int64)
        degree = np.diff(offsets)
        vertices = np.arange(n)
        # higher(u): u's (sorted) neighbors above u, a suffix of its row.
        above = neighbors > np.repeat(vertices, degree)
        hi_start = offsets[1:] - np.bincount(
            np.repeat(vertices, degree)[above], minlength=n
        )
        n_higher = offsets[1:] - hi_start
        has_higher = n_higher > 0
        higher = neighbors[above]
        # Per vertex: read offsets[u]; if any higher neighbor, read u's
        # range, then offsets[v] and v's range for each higher v, and
        # finally write u's count.
        ev_v, ev_k = interleave([
            (np.ones(n), vertices, OFF),
            (has_higher, vertices[has_higher], NEIGH),
            (2 * n_higher, np.repeat(higher, 2), np.tile([OFF, NEIGH], len(higher))),
            (has_higher, vertices[has_higher], prop(0, is_write=True)),
        ])
        return ev_v, ev_k, {"triangles": self._count(higher, n_higher, n)}

    @staticmethod
    def _count(higher: np.ndarray, n_higher: np.ndarray, n: int) -> int:
        """Triangles u < v < w: for each v in higher(u), the members of
        higher(v) that are also in higher(u)."""
        starts = np.cumsum(n_higher) - n_higher
        edge_keys = np.repeat(np.arange(n), n_higher) * n + higher  # sorted
        total = 0
        for u in np.flatnonzero(n_higher).tolist():
            mids = higher[starts[u] : starts[u] + n_higher[u]]
            lens = n_higher[mids]
            tips = higher[np.repeat(starts[mids], lens) + group_ranks(lens)]
            keys = u * n + tips
            found = np.searchsorted(edge_keys, keys)
            found = np.minimum(found, len(edge_keys) - 1)
            total += int(np.count_nonzero(edge_keys[found] == keys))
        return total
