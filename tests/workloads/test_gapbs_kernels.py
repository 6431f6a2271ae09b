"""Unit tests for the six GAPBS kernels: correctness of the algorithms
plus the page-touch emission contract."""

import networkx as nx
import numpy as np
import pytest

from repro.machine import Machine
from repro.run import run_workload
from repro.sim.config import PAGE_SIZE, SimulationConfig
from repro.workloads.gapbs import KERNELS, Graph
from repro.workloads.gapbs.base import (
    NEIGH,
    NEIGHBORS_BASE,
    OFFSETS_BASE,
    PROP_BASE,
)
from repro.workloads.gapbs.cc import ConnectedComponentsWorkload
from repro.workloads.gapbs.pagerank import PageRankWorkload
from repro.workloads.gapbs.tc import TriangleCountWorkload

CONFIG = SimulationConfig(dram_pages=(256,), pm_pages=(2048,))


@pytest.fixture(scope="module")
def small_graph():
    return Graph.uniform(200, 600, seed=3)


def drive(workload):
    machine = Machine(CONFIG, "static")
    return run_workload(workload, CONFIG, machine=machine)


def to_networkx(graph: Graph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    for u in range(graph.n):
        for v in graph.neigh(u).tolist():
            g.add_edge(u, v)
    return g


def test_all_six_kernels_registered():
    assert set(KERNELS) == {"bfs", "sssp", "pr", "cc", "bc", "tc"}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_runs_and_touches_pages(small_graph, name):
    workload = KERNELS[name](small_graph, trials=1, seed=1)
    result = drive(workload)
    assert result.accesses > 0
    assert result.operations == 1  # one trial = one operation


def test_trials_count_as_operations(small_graph):
    workload = KERNELS["bfs"](small_graph, trials=3, seed=1)
    result = drive(workload)
    assert result.operations == 3


def test_cc_matches_networkx(small_graph):
    workload = ConnectedComponentsWorkload(small_graph, max_rounds=50)
    drive(workload)
    assert workload.final_components is not None
    expected = list(nx.connected_components(to_networkx(small_graph)))
    # Same partition: pages in one component share a label.
    labels = workload.final_components
    for component in expected:
        component_labels = {labels[v] for v in component}
        assert len(component_labels) == 1


def test_triangle_count_matches_networkx():
    graph = Graph.uniform(60, 200, seed=8)
    workload = TriangleCountWorkload(graph)
    drive(workload)
    expected = sum(nx.triangles(to_networkx(graph)).values()) // 3
    assert workload.triangles == expected


def test_pagerank_sums_to_one(small_graph):
    workload = PageRankWorkload(small_graph, iterations=5)
    drive(workload)
    assert workload.final_ranks is not None
    total = sum(workload.final_ranks)
    # Dangling mass leaks in push PR; the total stays near 1.
    assert 0.5 < total <= 1.001


def test_touch_regions_are_disjoint(small_graph):
    workload = KERNELS["pr"](small_graph, trials=1, seed=1)
    machine = Machine(CONFIG, "static")
    workload.setup(machine)
    driven = []

    def blocks():
        for block in workload.blocks():
            yield block
            driven.extend(block.vpage[: block.done].tolist())

    machine.touch_batch(blocks())
    seen_regions = set()
    for vpage in driven:
        if vpage < NEIGHBORS_BASE:
            seen_regions.add("offsets")
        elif vpage < PROP_BASE:
            seen_regions.add("edges-or-weights")
        else:
            seen_regions.add("props")
    assert seen_regions == {"offsets", "edges-or-weights", "props"}


def test_neighbor_touch_lines_reflect_range(small_graph):
    workload = KERNELS["bfs"](small_graph, trials=1, seed=1)
    hub = max(range(small_graph.n), key=small_graph.degree)
    columns = workload.event_columns(np.array([hub]), np.array([NEIGH]), {})
    lines = columns.lines[columns.vpage >= NEIGHBORS_BASE]  # drop the boundary
    byte_span = small_graph.degree(hub) * 4
    assert int(lines.sum()) >= byte_span // 64
    assert all(lines <= PAGE_SIZE // 64)


def test_load_workload_separates_load_from_trials(small_graph):
    kernel = KERNELS["bfs"](small_graph, trials=1, seed=1)
    machine = Machine(CONFIG, "static")
    load_result = run_workload(kernel.load_workload(), CONFIG, machine=machine)
    trial_result = run_workload(kernel, CONFIG, machine=machine)
    assert kernel.loaded
    assert load_result.accesses > 0
    # The trial run must not repeat the sequential load pass.
    assert trial_result.accesses < 2 * load_result.accesses + trial_result.operations * small_graph.m_directed * 4


def test_footprint_counts_all_regions(small_graph):
    bfs = KERNELS["bfs"](small_graph)
    sssp = KERNELS["sssp"](small_graph)
    bc = KERNELS["bc"](small_graph)
    assert sssp.footprint_pages() > bfs.footprint_pages()  # weights array
    assert bc.footprint_pages() > bfs.footprint_pages()  # four property arrays


def test_sssp_distances_match_networkx():
    graph = Graph.uniform(80, 240, seed=6)
    workload = KERNELS["sssp"](graph, trials=1, seed=1)
    machine = Machine(CONFIG, "static")
    workload.setup(machine)
    # Re-run the kernel logic capturing distances via a fresh Dijkstra.
    import heapq

    from repro.sim.rng import make_rng

    rng = make_rng(1, "sssp-src-0")
    source = int(rng.integers(0, graph.n))
    dist = {source: 0}
    heap = [(0, source)]
    settled = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        lo = int(graph.offsets[u])
        for k, v in enumerate(graph.neigh(u).tolist()):
            nd = d + int(workload.weights[lo + k])
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    for u in range(graph.n):
        lo = int(graph.offsets[u])
        for k, v in enumerate(graph.neigh(u).tolist()):
            w = int(workload.weights[lo + k])
            if g.has_edge(u, v):
                w = min(w, g[u][v]["weight"])
            g.add_edge(u, v, weight=w)
    expected = nx.single_source_dijkstra_path_length(g, source, weight="weight")
    # networkx uses the min weight of the two directions per undirected
    # edge, so its distances lower-bound ours; reachability must agree.
    assert set(expected) == set(dist)
    for v, d in expected.items():
        assert dist[v] >= d
