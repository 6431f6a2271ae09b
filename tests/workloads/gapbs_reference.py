"""Per-vertex reference loops for the BFS and BC trial events.

These are the queue-driven loops the two kernels emitted with before
their level-synchronous numpy versions: one packed ``v << 4 | kind``
event per touch, appended as a plain Python BFS (or Brandes pass) walks
the graph.  ``test_gapbs_level_emission.py`` holds the shipped
``trial_events`` equal to them, column for column.
"""

from __future__ import annotations

from collections import deque

from repro.sim.rng import make_rng
from repro.workloads.gapbs.base import NEIGH, OFF, decode_events, prop

_BFS_READ, _BFS_WRITE = prop(0), prop(0, is_write=True)
_DEPTH_R, _DEPTH_W = prop(0), prop(0, is_write=True)
_SIGMA_W = prop(1, is_write=True)
_DELTA_R, _DELTA_W = prop(2), prop(2, is_write=True)
_CENTRALITY_W = prop(3, is_write=True)


def bfs_trial_events(workload, trial: int):
    """``BFSWorkload.trial_events``: top-down BFS from the trial's source."""
    graph = workload.graph
    rng = make_rng(workload.seed, f"bfs-src-{trial}")
    source = int(rng.integers(0, graph.n))
    parent = {source: source}
    events = [source << 4 | _BFS_WRITE]
    emit = events.append
    frontier = [source]
    while frontier:
        next_frontier = []
        for u in frontier:
            emit(u << 4 | OFF)
            emit(u << 4 | NEIGH)
            for v in graph.neigh(u).tolist():
                emit(v << 4 | _BFS_READ)
                if v not in parent:
                    parent[v] = u
                    emit(v << 4 | _BFS_WRITE)
                    next_frontier.append(v)
        frontier = next_frontier
    return (*decode_events(events), {})


def bc_trial_events(workload, trial: int):
    """``BetweennessCentralityWorkload.trial_events``: one Brandes pass
    per sampled source."""
    rng = make_rng(workload.seed, f"bc-src-{trial}")
    events: list[int] = []
    for source in rng.integers(0, workload.graph.n, size=workload.n_sources).tolist():
        brandes(workload.graph, int(source), events.append)
    return (*decode_events(events), {})


def brandes(graph, source: int, emit) -> None:
    """A forward BFS accumulating path counts, then the dependency pass."""
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
