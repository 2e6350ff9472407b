"""The graph oracle against reference shortest-path code.

``WeightedGraph`` answers every shortest-path query from one cached
Dijkstra per source that works on node ranks. The references below are
the straightforward versions it replaced: a Dijkstra that compares
``repr`` strings on every relaxation, and a hop-count DP over the
shortest-path DAG. Every view of the oracle must equal them exactly,
including dict order, on graphs where the two orders are easiest to
confuse: int nodes past 9 (``'10' < '9'``), str nodes, and equal-weight
paths with different hop counts. What the numpy Floyd–Warshall key
matrix answers without a search (``WD``, rank-indexed distance rows and
paths) is held to the same references, so is the tree embedding that
reads it, and graphs outside its conditions must stay on the Python
path.
"""

import heapq
import math
import random
import sys
from fractions import Fraction

import pytest

from repro.congest import CongestRun
from repro.engine.jobs import expand_jobs
from repro.engine.registry import ScenarioSpec
from repro.engine.runner import build_instance
from repro.model import graph as graph_module
from repro.model.graph import WeightedGraph, canonical_edge
from repro.randomized.embedding import build_embedding


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
# The numpy Floyd–Warshall key matrix
# ---------------------------------------------------------------------


@pytest.fixture
def computed_trees(monkeypatch):
    """Sources whose tree a Python search computed."""
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
    """The key matrix at every graph size (n ≥ 2), with numpy installed."""
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


def assert_keys_match_reference(graph, computed_trees):
    """``s``, ``WD``, every rank-indexed row and every path, read off the
    key matrix with no search, equal the reference search's; then every
    view of the oracle does."""
    graph.shortest_path_diameter()
    references = {v: reference_dijkstra(graph, v) for v in graph.nodes}
    assert graph.weighted_diameter() == max(
        max(dist.values()) for dist, _ in references.values()
    )
    for source, (ref_dist, ref_parent) in references.items():
        assert graph.distance_row(source) == [
            ref_dist[v] for v in graph.nodes
        ]
        for target in graph.nodes:
            assert graph.shortest_path(source, target) == reference_path(
                ref_parent, source, target
            )
    assert graph._sssp_cache == {}
    assert computed_trees == []
    assert_matches_reference(graph)


def embedding_fields(graph, truncate_at):
    """Every field of a seeded embedding of ``graph``, and its ledger."""
    run = CongestRun(graph)
    emb = build_embedding(graph, run, random.Random(3), truncate_at)
    fields = (
        emb.rank, emb.beta, emb.levels, emb.ancestors, emb.truncation_level,
        emb.nearest_s, emb.s_nodes, emb.max_paths_per_node,
    )
    ledger = (
        run.rounds, run.messages, dict(run.edge_messages),
        dict(run.phase_rounds),
    )
    return fields, ledger


KEY_GRAPHS = [
    pytest.param(
        lambda: WeightedGraph(range(12), TIE_EDGES), id="numpy-tie-edges"
    ),
    *(
        pytest.param(
            lambda seed=seed, kind=kind: random_graph(seed, kind),
            id=f"numpy-{kind}{seed}",
        )
        for kind in ("int", "str")
        for seed in range(30)
    ),
]

PERFBENCH_GRAPHS = [
    pytest.param("gnp", {"n": 256, "p": 0.03}, id="numpy-gnp256"),
    pytest.param("torus", {"rows": 16, "cols": 16}, id="numpy-torus16"),
]


class TestKeyMatrixMatchesReference:
    """``WD``, rank rows and paths from one Floyd–Warshall pass equal the
    Python search's, and the embedding reads them without a search."""

    @pytest.mark.parametrize("make", KEY_GRAPHS)
    def test_key_reads_match_reference(self, fill_everywhere, make):
        assert_keys_match_reference(make(), fill_everywhere)

    def test_numpy_tie_paths_read_off_the_keys(self, fill_everywhere):
        graph = WeightedGraph(range(12), TIE_EDGES)
        graph.weighted_diameter()
        assert graph.shortest_path(0, 11) == [0, 10, 11]
        assert graph.shortest_path(0, 4) == [0, 10, 4]
        assert fill_everywhere == []

    @pytest.mark.parametrize("family, grid", PERFBENCH_GRAPHS)
    def test_perfbench_n256_graphs(self, computed_trees, family, grid):
        pytest.importorskip("numpy")
        assert_keys_match_reference(
            perfbench_graph(family, **grid), computed_trees
        )

    def test_numpy_paths_never_start_the_pass(self, fill_everywhere):
        graph = random_graph(3, "str")
        source, target = graph.nodes[0], graph.nodes[-1]
        graph.shortest_path(source, target)
        assert graph._keys is None
        assert fill_everywhere == [source]

    def test_numpy_cached_trees_answer_first(self, fill_everywhere):
        graph = random_graph(3, "str")
        early = graph.nodes[::3]
        for v in early:
            graph._sssp(v)
        graph.weighted_diameter()
        for v in early:
            graph.shortest_path(v, graph.nodes[-1])
        assert graph._key_parent_rows == {}
        assert fill_everywhere == list(early)

    @pytest.mark.parametrize("truncated", [False, True], ids=["full", "cut"])
    @pytest.mark.parametrize(
        "family, grid",
        PERFBENCH_GRAPHS + [pytest.param("gnp", {"n": 48, "p": 0.1},
                                         id="numpy-gnp48")],
    )
    def test_embedding_reads_no_search(
        self, monkeypatch, computed_trees, family, grid, truncated
    ):
        """Inside the window the embedding computes no tree, and it
        equals the embedding built from searches alone."""
        pytest.importorskip("numpy")
        graph = perfbench_graph(family, **grid)
        truncate_at = math.isqrt(graph.num_nodes) if truncated else None
        from_keys = embedding_fields(graph, truncate_at)
        assert computed_trees == []
        monkeypatch.setitem(sys.modules, "numpy", None)
        graph = perfbench_graph(family, **grid)
        assert embedding_fields(graph, truncate_at) == from_keys
        assert len(computed_trees) == graph.num_nodes


class TestKeyMatrixFallsBackToPython:
    """Outside the key matrix's conditions every read is a Python search,
    with the same answers."""

    def test_without_numpy_rows_stay_python(
        self, monkeypatch, computed_trees
    ):
        monkeypatch.setattr(graph_module, "_FILL_MIN_N", 1)
        monkeypatch.setitem(sys.modules, "numpy", None)
        graph = WeightedGraph(range(12), TIE_EDGES)
        graph.weighted_diameter()
        assert computed_trees == list(graph.nodes)
        assert_matches_reference(graph)

    @pytest.mark.parametrize("over", [0, 1], ids=["at-bound", "past-bound"])
    def test_numpy_key_bound(self, fill_everywhere, over):
        """The key matrix exists while (n - 1)·max weight·2n + n stays
        below half the C int range, so that two keys always sum without
        wrapping."""
        np = pytest.importorskip("numpy")
        n = 40
        half = int(np.iinfo(np.intc).max) // 2
        heaviest = (half - n - 1) // ((n - 1) * 2 * n) + over
        rng = random.Random(5)
        graph = WeightedGraph(range(n), [
            (i, j, rng.choice([1, 2])) for i in range(n)
            for j in range(i + 1, min(n, i + 3))
        ] + [(0, n - 1, heaviest)])
        if not over:
            assert_keys_match_reference(graph, fill_everywhere)
            return
        graph.weighted_diameter()
        assert graph._keys is None
        assert fill_everywhere == list(graph.nodes)
        assert_matches_reference(graph)

    def test_numpy_keys_skip_graphs_outside_the_size_window(
        self, monkeypatch, fill_everywhere
    ):
        monkeypatch.setattr(graph_module, "_FILL_MAX_N", 11)
        graph = WeightedGraph(range(12), TIE_EDGES)
        graph.weighted_diameter()
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
    def test_numpy_keys_skip_unvalidated_graphs(
        self, fill_everywhere, edges, rows
    ):
        graph = WeightedGraph(range(len(rows)), edges, validate=False)
        assert graph.weighted_diameter() == max(
            max(row.values()) for row in rows.values()
        )
        assert fill_everywhere == list(graph.nodes)
        assert graph.all_pairs_distances() == rows
