"""Betweenness-centrality oracle test: the shipped traversal vs networkx.

The BC workload's page touches are driven by the forward BFS (depth and
sigma arrays) and the reverse dependency pass; if either is wrong the
emitted access pattern is wrong too.  ``BetweennessCentralityWorkload``
lays its events out from ``bfs_traversal``: its visit order, depths and
neighbor lists.  This test takes depth and order from that same call,
accumulates sigma (shortest-path counts) along the edges it reports,
and checks both against networkx for every reachable vertex.
"""

import networkx as nx
import pytest

from repro.workloads.gapbs.base import bfs_traversal
from repro.workloads.gapbs.graph import Graph


@pytest.fixture(scope="module")
def graph():
    return Graph.uniform(120, 360, seed=13)


def brandes_forward(graph: Graph, source: int):
    """Depth and visit order from the shipped traversal, and sigma
    accumulated over its edges in visit order, as Brandes does."""
    traversal = bfs_traversal(graph, source)
    order = traversal.order.tolist()
    depth = {u: int(traversal.depth[u]) for u in order}
    sigma = dict.fromkeys(order, 0.0)
    sigma[source] = 1.0
    neighbors = iter(traversal.neighbors.tolist())
    for u, degree in zip(order, traversal.degree.tolist()):
        for __ in range(degree):
            v = next(neighbors)
            if depth[v] == depth[u] + 1:
                sigma[v] += sigma[u]
    return depth, sigma, order


def to_networkx(graph: Graph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    for u in range(graph.n):
        for v in graph.neigh(u).tolist():
            g.add_edge(u, v)
    return g


def test_depths_match_networkx(graph):
    g = to_networkx(graph)
    for source in (0, 17, 63):
        depth, __, __o = brandes_forward(graph, source)
        expected = nx.single_source_shortest_path_length(g, source)
        assert depth == dict(expected)


def test_sigma_counts_shortest_paths(graph):
    g = to_networkx(graph)
    for source in (0, 17):
        __, sigma, __o = brandes_forward(graph, source)
        for target in list(sigma)[:40]:
            expected = len(list(nx.all_shortest_paths(g, source, target)))
            assert sigma[target] == pytest.approx(expected), (source, target)


def test_order_is_non_decreasing_in_depth(graph):
    depth, __, order = brandes_forward(graph, 5)
    depths = [depth[u] for u in order]
    assert depths == sorted(depths)


def test_dependency_pass_conserves_mass(graph):
    """Brandes' accumulation: sum over v of delta(v) equals the number of
    (source, target) dependency contributions, i.e. sum over reachable
    t != s of 1 weighted along shortest-path DAG edges."""
    source = 3
    depth, sigma, order = brandes_forward(graph, source)
    delta = {u: 0.0 for u in order}
    for u in reversed(order):
        for v in graph.neigh(u).tolist():
            if v in depth and depth[v] == depth[u] + 1 and sigma[v] > 0:
                delta[u] += sigma[u] / sigma[v] * (1.0 + delta[v])
    # Each reachable non-source vertex contributes exactly 1 unit of
    # dependency mass, distributed over its predecessors.
    reachable = len(order) - 1
    assert sum(delta.values()) == pytest.approx(
        sum(1.0 + delta[v] for v in order if v != source)
    )
    assert sum(1.0 for v in order if v != source) == reachable
