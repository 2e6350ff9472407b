"""Shared fixtures for the test suite."""

import random

import networkx as nx
import pytest

from repro.model import WeightedGraph
from repro.model.instance import instance_from_components


@pytest.fixture
def rng():
    return random.Random(0xABCDEF)


@pytest.fixture
def triangle():
    """A weighted triangle: the simplest graph with a cycle."""
    return WeightedGraph([0, 1, 2], [(0, 1, 1), (1, 2, 2), (0, 2, 4)])


@pytest.fixture
def path5():
    """A unit-weight path on 5 nodes."""
    return WeightedGraph(
        range(5), [(i, i + 1, 1) for i in range(4)]
    )


@pytest.fixture
def grid33():
    """A 3×3 unit-weight grid."""
    g = nx.convert_node_labels_to_integers(nx.grid_2d_graph(3, 3))
    return WeightedGraph.from_networkx(g)


@pytest.fixture
def grid44():
    """A 4×4 unit-weight grid."""
    g = nx.convert_node_labels_to_integers(nx.grid_2d_graph(4, 4))
    return WeightedGraph.from_networkx(g)


@pytest.fixture
def grid_instance_2comp(grid44):
    """Two 2-terminal components on opposite corners of the 4×4 grid."""
    return instance_from_components(grid44, [[0, 15], [3, 12]])


def make_random_instance(seed, n_range=(8, 16), k_range=(1, 3),
                         comp_size_range=(2, 3), p=0.4, max_weight=20):
    """Deterministic random instance used across test modules."""
    rng = random.Random(seed)
    n = rng.randint(*n_range)
    g = nx.gnp_random_graph(n, p, seed=rng.randrange(1 << 30))
    if not nx.is_connected(g):
        g = nx.compose(g, nx.path_graph(n))
    for u, v in g.edges:
        g[u][v]["weight"] = rng.randint(1, max_weight)
    graph = WeightedGraph.from_networkx(g)
    nodes = list(graph.nodes)
    rng.shuffle(nodes)
    k = rng.randint(*k_range)
    components, idx = [], 0
    for _ in range(k):
        size = rng.randint(*comp_size_range)
        components.append(nodes[idx: idx + size])
        idx += size
    return instance_from_components(graph, components)


def le_list_by_sort(row, rank):
    """The LE-list specification: sort the row by (distance, −rank) and
    keep each node that out-ranks every node before it."""
    expected, best = [], -1
    for u in sorted(row, key=lambda u: (row[u], -rank[u])):
        if rank[u] > best:
            best = rank[u]
            expected.append((row[u], u))
    return expected
