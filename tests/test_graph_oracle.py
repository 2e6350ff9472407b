"""The graph oracle against reference shortest-path code.

``WeightedGraph`` answers every shortest-path query from one cached
Dijkstra per source that works on node ranks. The references below are
the straightforward versions it replaced: a Dijkstra that compares
``repr`` strings on every relaxation, and a hop-count DP over the
shortest-path DAG. Every view of the oracle must equal them exactly,
including dict order, on graphs where the two orders are easiest to
confuse: int nodes past 9 (``'10' < '9'``), str nodes, and equal-weight
paths with different hop counts. The rows the numpy Floyd–Warshall pass
caches are held to the same references, and graphs outside its
conditions must stay on the Python path.
"""

import heapq
import random
import sys
from fractions import Fraction

import pytest

from repro.engine.jobs import expand_jobs
from repro.engine.registry import ScenarioSpec
from repro.engine.runner import build_instance
from repro.model import graph as graph_module
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


TIE_EDGES = [
    # 0→11 weighs 4 three ways: 0-10-11 (2 hops), 0-1-2-11 and
    # 0-9-3-11 (3 hops); 0→4 weighs 3 in 2 hops via 10 or via 9, and
    # the tie goes to 10 because '10' < '9'.
    (0, 10, 2), (10, 11, 2), (0, 1, 1), (1, 2, 1), (2, 11, 2),
    (0, 9, 1), (9, 3, 1), (3, 11, 2), (10, 4, 1), (9, 4, 2),
    (4, 5, 1), (5, 6, 3), (6, 7, 1), (7, 8, 1), (8, 11, 1),
]

TIE_GRAPH = WeightedGraph(range(12), TIE_EDGES)


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


# ---------------------------------------------------------------------
# Every row at once: the numpy Floyd–Warshall fill
# ---------------------------------------------------------------------


@pytest.fixture
def computed_trees(monkeypatch):
    """Sources whose tree a Python search computed (not the fill)."""
    trees = []
    original = WeightedGraph._sssp

    def counting(self, source):
        if source not in self._sssp_cache:
            trees.append(source)
        return original(self, source)

    monkeypatch.setattr(WeightedGraph, "_sssp", counting)
    return trees


@pytest.fixture
def fill_everywhere(monkeypatch, computed_trees):
    """The fill at every graph size (n ≥ 2), with numpy installed."""
    pytest.importorskip("numpy")
    monkeypatch.setattr(graph_module, "_FILL_MIN_N", 1)
    return computed_trees


def perfbench_graph(family, **grid):
    """The graph of perfbench's ``solvers-n256`` scenario of ``family``
    (graphs depend on the grid and the seed index only)."""
    spec = ScenarioSpec(
        name="oracle", family=family, algorithms=("moat",),
        grid=dict(grid, k=3, component_size=2), seeds=1,
    )
    return build_instance(expand_jobs(spec)[0]).graph


def assert_fill_matches_reference(graph, computed_trees):
    # s comes from the key matrix alone; the first all-rows read fills
    # every row from it.
    graph.shortest_path_diameter()
    assert graph._sssp_cache == {}
    graph.all_pairs_distances()
    assert len(graph._sssp_cache) == graph.num_nodes
    assert computed_trees == []
    assert_matches_reference(graph)
    assert computed_trees == []


class TestNumpyFillMatchesReference:
    """Rows from one Floyd–Warshall pass equal the Python search's:
    distances in first-reach order, hops, parents, paths and balls."""

    def test_numpy_equal_weight_paths_with_different_hops(
        self, fill_everywhere
    ):
        graph = WeightedGraph(range(12), TIE_EDGES)
        assert_fill_matches_reference(graph, fill_everywhere)
        assert graph.shortest_path(0, 11) == [0, 10, 11]
        assert graph.shortest_path(0, 4) == [0, 10, 4]

    @pytest.mark.parametrize("kind", ["int", "str"])
    @pytest.mark.parametrize("seed", range(30))
    def test_numpy_random_tie_heavy_graphs(
        self, fill_everywhere, seed, kind
    ):
        assert_fill_matches_reference(
            random_graph(seed, kind), fill_everywhere
        )

    def test_numpy_rows_cached_before_the_fill_stay(self, fill_everywhere):
        graph = random_graph(3, "str")
        early = {v: graph._sssp(v) for v in graph.nodes[::3]}
        fill_everywhere.clear()
        graph.all_pairs_distances()
        assert fill_everywhere == []
        for v, tree in early.items():
            assert graph._sssp_cache[v] is tree
        assert_matches_reference(graph)
        assert fill_everywhere == []

    @pytest.mark.parametrize(
        "family, grid",
        [
            ("gnp", {"n": 256, "p": 0.03}),
            ("torus", {"rows": 16, "cols": 16}),
        ],
        ids=["gnp256", "torus16"],
    )
    def test_numpy_perfbench_n256_graphs(self, computed_trees, family, grid):
        pytest.importorskip("numpy")
        graph = perfbench_graph(family, **grid)
        assert_fill_matches_reference(graph, computed_trees)


class TestFillFallsBackToPython:
    """Outside the fill's conditions every row is a Python search, with
    the same answers."""

    def test_without_numpy_rows_stay_python(
        self, monkeypatch, computed_trees
    ):
        monkeypatch.setattr(graph_module, "_FILL_MIN_N", 1)
        monkeypatch.setitem(sys.modules, "numpy", None)
        graph = WeightedGraph(range(12), TIE_EDGES)
        graph.all_pairs_distances()
        assert computed_trees == list(graph.nodes)
        assert_matches_reference(graph)

    @pytest.mark.parametrize("over", [0, 1], ids=["at-bound", "past-bound"])
    def test_numpy_key_bound(self, fill_everywhere, over):
        """The fill runs while (n - 1)·max weight·2n + n stays below half
        the C int range, so that two keys always sum without wrapping."""
        np = pytest.importorskip("numpy")
        n = 40
        half = int(np.iinfo(np.intc).max) // 2
        heaviest = (half - n - 1) // ((n - 1) * 2 * n) + over
        rng = random.Random(5)
        graph = WeightedGraph(range(n), [
            (i, j, rng.choice([1, 2])) for i in range(n)
            for j in range(i + 1, min(n, i + 3))
        ] + [(0, n - 1, heaviest)])
        graph.all_pairs_distances()
        assert fill_everywhere == (list(graph.nodes) if over else [])
        assert_matches_reference(graph)

    def test_numpy_fill_skips_graphs_outside_the_size_window(
        self, monkeypatch, fill_everywhere
    ):
        monkeypatch.setattr(graph_module, "_FILL_MAX_N", 11)
        graph = WeightedGraph(range(12), TIE_EDGES)
        graph.all_pairs_distances()
        assert fill_everywhere == list(graph.nodes)

    @pytest.mark.parametrize(
        "edges, rows",
        [
            (
                [(0, 1, 1), (2, 3, 2)],
                {0: {0: 0, 1: 1}, 1: {1: 0, 0: 1},
                 2: {2: 0, 3: 2}, 3: {3: 0, 2: 2}},
            ),
            (
                [(0, 1, 1.5), (1, 2, 1)],
                {0: {0: 0, 1: 1.5, 2: 2.5}, 1: {1: 0, 0: 1.5, 2: 1},
                 2: {2: 0, 1: 1, 0: 2.5}},
            ),
        ],
        ids=["disconnected", "float-weight"],
    )
    def test_numpy_fill_skips_unvalidated_graphs(
        self, fill_everywhere, edges, rows
    ):
        graph = WeightedGraph(range(len(rows)), edges, validate=False)
        assert graph.all_pairs_distances() == rows
        assert fill_everywhere == list(graph.nodes)
