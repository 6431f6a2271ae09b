"""CSR graphs and generators for the GAPBS-style kernels.

GAPBS loads a graph into memory (CSR: an offsets array plus a packed
neighbor array) and then runs trials of each kernel over the resident
representation.  The memory layout below mirrors that: each CSR array
occupies its own contiguous virtual region, so a kernel's traversal order
produces the same page-level locality structure the real benchmark shows
(sequential offset reads, neighbor bursts, scattered property access).

Generators: ``uniform`` (Erdős–Rényi-style random edges) and ``rmat``
(the Kronecker/R-MAT generator GAPBS uses for its synthetic inputs,
giving the skewed degree distribution real-world graphs have).
"""

from __future__ import annotations

import numpy as np

from repro.sim.rng import make_rng

__all__ = ["Graph"]


class Graph:
    """An undirected graph in CSR form."""

    def __init__(self, n_vertices: int, edges: np.ndarray) -> None:
        """Build CSR from an ``(m, 2)`` array of (u, v) pairs.

        Self-loops are dropped and each edge is stored in both directions
        (undirected, as GAPBS does for its kernels by default).
        """
        if n_vertices <= 0:
            raise ValueError("graph needs at least one vertex")
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n_vertices):
            raise ValueError("edge endpoint out of range")
        keep = edges[:, 0] != edges[:, 1]
        edges = edges[keep]
        both = np.concatenate([edges, edges[:, ::-1]], axis=0)
        order = np.lexsort((both[:, 1], both[:, 0]))
        both = both[order]
        # Deduplicate parallel edges.
        if len(both):
            uniq = np.ones(len(both), dtype=bool)
            uniq[1:] = (both[1:] != both[:-1]).any(axis=1)
            both = both[uniq]
        self.n = n_vertices
        self.offsets = np.zeros(n_vertices + 1, dtype=np.int64)
        np.add.at(self.offsets, both[:, 0] + 1, 1)
        np.cumsum(self.offsets, out=self.offsets)
        self.neighbors = both[:, 1].astype(np.int32)
        #: The GAPBS kernels' candidate touch columns for the latest kernel
        #: configuration run over this graph, shared by every policy.
        self.emission_memo: dict = {}

    @property
    def m_directed(self) -> int:
        """Stored (directed) edge count — twice the undirected count."""
        return len(self.neighbors)

    def degree(self, v: int) -> int:
        return int(self.offsets[v + 1] - self.offsets[v])

    def neigh(self, v: int) -> np.ndarray:
        return self.neighbors[self.offsets[v] : self.offsets[v + 1]]

    # -- generators -------------------------------------------------------------

    @classmethod
    def uniform(cls, n_vertices: int, n_edges: int, seed: int = 1) -> "Graph":
        """Uniform random graph with ~``n_edges`` undirected edges."""
        rng = make_rng(seed, f"uniform-graph-{n_vertices}-{n_edges}")
        pairs = rng.integers(0, n_vertices, size=(n_edges, 2), dtype=np.int64)
        return cls(n_vertices, pairs)

    @classmethod
    def rmat(cls, scale: int, edge_factor: int = 16, seed: int = 1) -> "Graph":
        """R-MAT (Kronecker) graph: 2^scale vertices, skewed degrees.

        Uses GAPBS's Graph500 parameters (a, b, c) = (0.57, 0.19, 0.19).
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        n = 1 << scale
        m = n * edge_factor
        rng = make_rng(seed, f"rmat-{scale}-{edge_factor}")
        src = np.zeros(m, dtype=np.int64)
        dst = np.zeros(m, dtype=np.int64)
        a, b, c = 0.57, 0.19, 0.19
        for bit in range(scale):
            draw = rng.random(m)
            src_bit = (draw > a + b).astype(np.int64)
            # Given the src bit, pick the dst bit with the conditional odds.
            dst_threshold = np.where(src_bit == 0, a / (a + b), c / (1 - a - b))
            dst_bit = (rng.random(m) > dst_threshold).astype(np.int64)
            src |= src_bit << bit
            dst |= dst_bit << bit
        # Permute vertex ids so degree is uncorrelated with id (GAPBS -p).
        perm = rng.permutation(n)
        return cls(n, np.stack([perm[src], perm[dst]], axis=1))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m_directed={self.m_directed})"
