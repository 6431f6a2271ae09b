"""A test-only lazy GAPBS emitter: the obviously-correct reference.

This is the per-touch generator the kernels used before they built
their candidate touches as columns: every page touch is one
:class:`Access`, built the moment the driver asks for it, and every
cacheable touch (an ``offsets`` read or a property slot) tests live
page-table membership and, when mapped, takes one scalar draw from the
CPU-cache stream right then.  The columnar emitter must reproduce its
access sequence and every run result exactly.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Iterator, NamedTuple

import numpy as np

from repro.mm.address_space import Process
from repro.sim.config import PAGE_SIZE
from repro.sim.rng import make_rng
from repro.workloads.gapbs.base import (
    NEIGHBOR_BYTES,
    NEIGHBORS_BASE,
    OFFSET_BYTES,
    OFFSETS_BASE,
    PROP_BASE,
    PROP_BYTES,
    PROP_STRIDE,
    WEIGHT_BYTES,
    WEIGHTS_BASE,
    GraphKernelWorkload,
)

_LINE = 64


class Access(NamedTuple):
    """One page touch."""

    process: Process
    vpage: int
    is_write: bool = False
    op_boundary: bool = False
    lines: int = 1


class LazyEmitter:
    """Drives one kernel workload's stream the old, per-touch way."""

    def __init__(self, workload: GraphKernelWorkload) -> None:
        self.w = workload
        self.graph = workload.graph
        self.cache_rng = make_rng(workload.seed, f"{workload.kernel}-cpu-cache")

    # -- touch helpers ---------------------------------------------------------

    def range_touches(self, base, byte_lo, byte_hi, *, is_write, boundary=False):
        process = self.w.process
        if byte_hi <= byte_lo:
            byte_hi = byte_lo + 1
        first = byte_lo // PAGE_SIZE
        last = (byte_hi - 1) // PAGE_SIZE
        for page_index in range(first, last + 1):
            lo = max(byte_lo, page_index * PAGE_SIZE)
            hi = min(byte_hi, (page_index + 1) * PAGE_SIZE)
            lines = max(1, (hi - lo + _LINE - 1) // _LINE)
            yield Access(
                process,
                base + page_index,
                is_write=is_write,
                lines=lines,
                op_boundary=boundary and page_index == last,
            )

    def cache_absorbed(self, base, byte_lo):
        if base + byte_lo // PAGE_SIZE not in self.w.process.page_table:
            return False
        return bool(self.cache_rng.random() < self.w.cpu_cache_hit_rate)

    def offsets(self, v):
        if self.cache_absorbed(OFFSETS_BASE, v * OFFSET_BYTES):
            return iter(())
        return self.range_touches(
            OFFSETS_BASE, v * OFFSET_BYTES, (v + 2) * OFFSET_BYTES, is_write=False
        )

    def neighbors(self, v):
        lo = int(self.graph.offsets[v]) * NEIGHBOR_BYTES
        hi = int(self.graph.offsets[v + 1]) * NEIGHBOR_BYTES
        return self.range_touches(NEIGHBORS_BASE, lo, hi, is_write=False)

    def weights(self, v):
        lo = int(self.graph.offsets[v]) * WEIGHT_BYTES
        hi = int(self.graph.offsets[v + 1]) * WEIGHT_BYTES
        return self.range_touches(WEIGHTS_BASE, lo, hi, is_write=False)

    def prop(self, v, *, array_id=0, is_write=False):
        base = PROP_BASE + array_id * PROP_STRIDE
        lo = v * PROP_BYTES
        if self.cache_absorbed(base, lo):
            return iter(())
        return self.range_touches(base, lo, lo + PROP_BYTES, is_write=is_write)

    # -- streams ---------------------------------------------------------------

    def load_pass(self) -> Iterator[Access]:
        graph = self.graph
        yield from self.range_touches(
            OFFSETS_BASE, 0, (graph.n + 1) * OFFSET_BYTES, is_write=True
        )
        if self.w.uses_weights():
            yield from self.range_touches(
                WEIGHTS_BASE, 0, graph.m_directed * WEIGHT_BYTES, is_write=True
            )
        yield from self.range_touches(
            NEIGHBORS_BASE, 0, graph.m_directed * NEIGHBOR_BYTES, is_write=True
        )

    def accesses(self) -> Iterator[Access]:
        w = self.w
        if not w.loaded:
            yield from self.load_pass()
            w.loaded = True
        trial_fn = getattr(self, f"trial_{w.kernel}")
        for trial in range(w.trials):
            yield from trial_fn(trial)
            yield from self.range_touches(
                OFFSETS_BASE, 0, OFFSET_BYTES, is_write=False, boundary=True
            )
            w._free_trial_arrays()

    # -- the six kernels, as they were -----------------------------------------

    def trial_bfs(self, trial):
        graph = self.graph
        source = int(make_rng(self.w.seed, f"bfs-src-{trial}").integers(0, graph.n))
        parent = {source: source}
        yield from self.prop(source, is_write=True)
        frontier = [source]
        while frontier:
            next_frontier = []
            for u in frontier:
                yield from self.offsets(u)
                yield from self.neighbors(u)
                for v in graph.neigh(u).tolist():
                    yield from self.prop(v)
                    if v not in parent:
                        parent[v] = u
                        yield from self.prop(v, is_write=True)
                        next_frontier.append(v)
            frontier = next_frontier

    def trial_sssp(self, trial):
        graph = self.graph
        source = int(make_rng(self.w.seed, f"sssp-src-{trial}").integers(0, graph.n))
        dist = {source: 0}
        yield from self.prop(source, is_write=True)
        heap = [(0, source)]
        settled = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in settled:
                continue
            settled.add(u)
            yield from self.offsets(u)
            yield from self.neighbors(u)
            yield from self.weights(u)
            lo = int(graph.offsets[u])
            for k, v in enumerate(graph.neigh(u).tolist()):
                nd = d + int(self.w.weights[lo + k])
                yield from self.prop(v)
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    yield from self.prop(v, is_write=True)
                    heapq.heappush(heap, (nd, v))

    def trial_pr(self, trial):
        graph = self.graph
        n = graph.n
        rank = [1.0 / n] * n
        base = (1.0 - 0.85) / n
        for __ in range(self.w.iterations):
            next_rank = [base] * n
            for u in range(n):
                yield from self.prop(u, array_id=0)
                yield from self.offsets(u)
                degree = graph.degree(u)
                if degree == 0:
                    continue
                share = 0.85 * rank[u] / degree
                yield from self.neighbors(u)
                for v in graph.neigh(u).tolist():
                    next_rank[v] += share
                    yield from self.prop(v, array_id=1, is_write=True)
            rank = next_rank
        self.final_ranks = rank

    def trial_cc(self, trial):
        graph = self.graph
        comp = list(range(graph.n))
        for __ in range(self.w.max_rounds):
            changed = False
            for u in range(graph.n):
                yield from self.offsets(u)
                yield from self.prop(u)
                best = comp[u]
                yield from self.neighbors(u)
                for v in graph.neigh(u).tolist():
                    yield from self.prop(v)
                    if comp[v] < best:
                        best = comp[v]
                if best < comp[u]:
                    comp[u] = best
                    yield from self.prop(u, is_write=True)
                    changed = True
            if not changed:
                break
        self.final_components = comp

    def trial_bc(self, trial):
        rng = make_rng(self.w.seed, f"bc-src-{trial}")
        for source in rng.integers(0, self.graph.n, size=self.w.n_sources).tolist():
            yield from self._brandes(int(source))

    def _brandes(self, source):
        graph = self.graph
        depth = {source: 0}
        sigma = {source: 1.0}
        order = []
        queue = deque([source])
        yield from self.prop(source, array_id=0, is_write=True)
        yield from self.prop(source, array_id=1, is_write=True)
        while queue:
            u = queue.popleft()
            order.append(u)
            yield from self.offsets(u)
            yield from self.neighbors(u)
            for v in graph.neigh(u).tolist():
                yield from self.prop(v, array_id=0)
                if v not in depth:
                    depth[v] = depth[u] + 1
                    sigma[v] = 0.0
                    queue.append(v)
                    yield from self.prop(v, array_id=0, is_write=True)
                if depth[v] == depth[u] + 1:
                    sigma[v] += sigma[u]
                    yield from self.prop(v, array_id=1, is_write=True)
        delta = {u: 0.0 for u in order}
        for u in reversed(order):
            yield from self.offsets(u)
            yield from self.neighbors(u)
            for v in graph.neigh(u).tolist():
                if v in depth and depth[v] == depth[u] + 1 and sigma[v] > 0:
                    delta[u] += sigma[u] / sigma[v] * (1.0 + delta[v])
                    yield from self.prop(v, array_id=2)
            yield from self.prop(u, array_id=2, is_write=True)
            if u != source:
                yield from self.prop(u, array_id=3, is_write=True)

    def trial_tc(self, trial):
        graph = self.graph
        total = 0
        for u in range(graph.n):
            yield from self.offsets(u)
            neigh_u = graph.neigh(u)
            higher = neigh_u[neigh_u > u]
            if len(higher) == 0:
                continue
            yield from self.neighbors(u)
            for v in higher.tolist():
                yield from self.offsets(v)
                yield from self.neighbors(v)
                neigh_v = graph.neigh(v)
                total += len(np.intersect1d(higher, neigh_v[neigh_v > v]))
            yield from self.prop(u, is_write=True)
        self.triangles = total
