"""The graph oracle against reference shortest-path code.

``WeightedGraph`` answers every shortest-path query from one cached
Dijkstra per source that works on node ranks. The references below are
the straightforward versions it replaced: a Dijkstra that compares
``repr`` strings on every relaxation, and a hop-count DP over the
shortest-path DAG. Every view of the oracle must equal them exactly,
including dict order, on graphs where the two orders are easiest to
confuse: int nodes past 9 (``'10' < '9'``), str nodes, and equal-weight
paths with different hop counts.
"""

import heapq
import random
from fractions import Fraction

import pytest

from repro.model.graph import WeightedGraph, canonical_edge


def reference_dijkstra(graph, source):
    """(dist, parents), ties to fewer hops, then the smaller parent repr."""
    dist = {source: 0}
    hops = {source: 0}
    parent = {source: None}
    heap = [(0, 0, repr(source), source)]
    done = set()
    while heap:
        d, h, _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in graph.adjacency(u).items():
            cand = (d + w, h + 1, repr(u))
            best = (dist.get(v), hops.get(v), repr(parent.get(v)))
            if v not in dist or cand < best:
                dist[v] = d + w
                hops[v] = h + 1
                parent[v] = u
                heapq.heappush(heap, (d + w, h + 1, repr(v), v))
    return dist, parent


def reference_min_hops(graph, source):
    """Min hops among least-weight paths, by DP in (dist, repr) order."""
    dist, _ = reference_dijkstra(graph, source)
    hops = {source: 0}
    for v in sorted(graph.nodes, key=lambda x: (dist[x], repr(x))):
        if v == source:
            continue
        hops[v] = min(
            hops[u] + 1
            for u, w in graph.adjacency(v).items()
            if u in hops and dist[u] + w == dist[v]
        )
    return hops


def reference_path(parent, u, v):
    path = [v]
    while path[-1] != u:
        path.append(parent[path[-1]])
    return path[::-1]


def reference_ball(graph, dist, radius):
    """(nodes, edge fractions) of the ball with the given center distances."""
    nodes = frozenset(v for v, d in dist.items() if d <= radius)
    fractions = {}
    for u, v, w in graph.edges():
        covered = sum(
            (min(Fraction(w), radius - dist[x]) for x in (u, v) if x in nodes),
            Fraction(0),
        )
        covered = min(covered, Fraction(w))
        if covered > 0:
            fractions[canonical_edge(u, v)] = covered / w
    return nodes, fractions


def random_graph(seed, kind):
    """A connected graph on up to 30 nodes with weights 1 and 2, so
    least-weight paths tie often and with different hop counts."""
    rng = random.Random(seed)
    n = rng.randint(2, 30)
    names = list(range(n)) if kind == "int" else [f"v{i}" for i in range(n)]
    edges = {}
    for i in range(1, n):
        edges[(rng.randrange(i), i)] = rng.choice([1, 1, 2])
    for _ in range(rng.randint(0, 2 * n)):
        i, j = sorted(rng.sample(range(n), 2))
        edges.setdefault((i, j), rng.choice([1, 2, 2]))
    return WeightedGraph(
        names, [(names[i], names[j], w) for (i, j), w in edges.items()]
    )


TIE_GRAPH = WeightedGraph(
    range(12),
    # 0→11 weighs 4 three ways: 0-10-11 (2 hops), 0-1-2-11 and
    # 0-9-3-11 (3 hops); 0→4 weighs 3 in 2 hops via 10 or via 9, and
    # the tie goes to 10 because '10' < '9'.
    [
        (0, 10, 2), (10, 11, 2), (0, 1, 1), (1, 2, 1), (2, 11, 2),
        (0, 9, 1), (9, 3, 1), (3, 11, 2), (10, 4, 1), (9, 4, 2),
        (4, 5, 1), (5, 6, 3), (6, 7, 1), (7, 8, 1), (8, 11, 1),
    ],
)


def assert_matches_reference(graph):
    best_s = best_wd = 0
    for source in graph.nodes:
        ref_dist, ref_parent = reference_dijkstra(graph, source)
        dist, parent = graph.dijkstra(source)
        assert list(dist.items()) == list(ref_dist.items())
        assert list(parent.items()) == list(ref_parent.items())
        assert graph.all_pairs_distances()[source] == ref_dist
        ref_hops = reference_min_hops(graph, source)
        hops = graph.min_hop_shortest_path_hops(source)
        assert list(hops.items()) == list(ref_hops.items())
        for target in graph.nodes:
            assert graph.distance(source, target) == ref_dist[target]
            path = graph.shortest_path(source, target)
            assert path == reference_path(ref_parent, source, target)
            assert len(path) - 1 == ref_hops[target]
        for radius in (Fraction(0), Fraction(3, 2), Fraction(4)):
            ball = graph.ball(source, radius)
            nodes, fractions = reference_ball(graph, ref_dist, radius)
            assert ball.nodes == nodes
            assert list(ball.edge_fractions.items()) == list(fractions.items())
        best_s = max(best_s, max(ref_hops.values()))
        best_wd = max(best_wd, max(ref_dist.values()))
    assert graph.shortest_path_diameter() == best_s
    assert graph.weighted_diameter() == best_wd


class TestOracleMatchesReference:
    @pytest.mark.parametrize("kind", ["int", "str"])
    @pytest.mark.parametrize("seed", range(30))
    def test_random_tie_heavy_graphs(self, seed, kind):
        assert_matches_reference(random_graph(seed, kind))

    def test_equal_weight_paths_with_different_hops(self):
        assert_matches_reference(TIE_GRAPH)
        assert TIE_GRAPH.shortest_path(0, 11) == [0, 10, 11]
        assert TIE_GRAPH.shortest_path(0, 4) == [0, 10, 4]

    def test_mutating_results_does_not_change_later_answers(self):
        graph = TIE_GRAPH
        dist, parent = graph.dijkstra(0)
        hops = graph.min_hop_shortest_path_hops(0)
        dist[11] = -1
        parent[11] = 5
        hops[11] = 99
        dist.clear()
        again_dist, again_parent = graph.dijkstra(0)
        assert again_dist[11] == 4 and again_parent[11] == 10
        assert graph.min_hop_shortest_path_hops(0)[11] == 2
        assert graph.distance(0, 11) == 4
        assert graph.shortest_path(0, 11) == [0, 10, 11]
