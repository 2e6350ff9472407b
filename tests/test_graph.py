"""Unit tests for WeightedGraph: construction, metrics, paths, balls."""

from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from repro.exceptions import GraphValidationError
from repro.model import WeightedGraph
from repro.model.graph import canonical_edge


class TestConstruction:
    def test_basic(self, triangle):
        assert triangle.num_nodes == 3
        assert triangle.num_edges == 3
        assert triangle.weight(0, 1) == 1
        assert triangle.weight(1, 0) == 1

    def test_from_edges_implies_nodes(self):
        g = WeightedGraph.from_edges([(5, 7, 2)])
        assert set(g.nodes) == {5, 7}

    def test_rejects_self_loop(self):
        with pytest.raises(GraphValidationError):
            WeightedGraph([0, 1], [(0, 0, 1), (0, 1, 1)])

    def test_rejects_unknown_node(self):
        with pytest.raises(GraphValidationError):
            WeightedGraph([0, 1], [(0, 2, 1)])

    def test_rejects_conflicting_weights(self):
        with pytest.raises(GraphValidationError):
            WeightedGraph([0, 1], [(0, 1, 1), (1, 0, 2)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(GraphValidationError):
            WeightedGraph([0, 1], [(0, 1, 0)])

    def test_rejects_non_integer_weight(self):
        with pytest.raises(GraphValidationError):
            WeightedGraph([0, 1], [(0, 1, 1.5)])

    def test_rejects_disconnected(self):
        with pytest.raises(GraphValidationError):
            WeightedGraph([0, 1, 2], [(0, 1, 1)])

    def test_rejects_empty(self):
        with pytest.raises(GraphValidationError):
            WeightedGraph([], [])

    def test_networkx_roundtrip(self, grid33):
        again = WeightedGraph.from_networkx(grid33.to_networkx())
        assert again.edge_set() == grid33.edge_set()
        assert again.total_weight() == grid33.total_weight()

    def test_networkx_default_weight_is_one(self):
        g = WeightedGraph.from_networkx(nx.path_graph(3))
        assert g.weight(0, 1) == 1

    def test_nodes_sorted_deterministically(self):
        g = WeightedGraph([3, 1, 2], [(1, 2, 1), (2, 3, 1)])
        assert list(g.nodes) == [1, 2, 3]

    def test_neighbors_and_degree(self, triangle):
        assert triangle.neighbors(0) == (1, 2)
        assert triangle.degree(0) == 2

    def test_cached_topology(self):
        # Node 10 sorts before 9 by repr: canonical order is repr order.
        g = WeightedGraph([9, 10, 11], [(9, 10, 2), (9, 11, 3)])
        assert g.edges() == [(10, 9, 2), (11, 9, 3)]
        g.edges().clear()  # callers get a copy of the cached list
        assert len(g.edges()) == 2
        pairs = g.canonical_pairs()
        assert pairs[(9, 10)] == pairs[(10, 9)] == (10, 9)
        assert (10, 11) not in pairs
        assert g.neighbors(9) == (10, 11)
        assert g.out_edges(9) == ((10, 9), (11, 9))
        assert g.repr_of[10] == "10"

    def test_rank_of_is_the_position_in_nodes(self):
        class Twin:
            def __repr__(self):
                return "t"

        twins = [Twin(), Twin()]
        for g in (
            WeightedGraph([9, 10, 11], [(9, 10, 2), (9, 11, 3)]),
            WeightedGraph(["b", (1, 2), 3, *twins],
                          [("b", 3, 1), ((1, 2), 3, 1), (3, twins[0], 1),
                           (twins[0], twins[1], 1)]),
        ):
            assert dict(g.rank_of) == {v: i for i, v in enumerate(g.nodes)}
        # Equal reprs keep distinct ranks, in the order given.
        assert g.rank_of[twins[0]] + 1 == g.rank_of[twins[1]]

    def test_edge_weight_sum(self, triangle):
        assert triangle.edge_weight_sum([(0, 1), (1, 2)]) == 3


class TestShortestPaths:
    def test_distance_prefers_light_path(self, triangle):
        # 0-2 direct costs 4, via 1 costs 3.
        assert triangle.distance(0, 2) == 3

    def test_shortest_path_nodes(self, triangle):
        assert triangle.shortest_path(0, 2) == [0, 1, 2]

    def test_path_weight(self, triangle):
        assert triangle.path_weight([0, 1, 2]) == 3

    def test_path_edges_canonical(self):
        assert WeightedGraph.path_edges([2, 1, 0]) == [(1, 2), (0, 1)]

    def test_dijkstra_parent_of_source_is_none(self, grid33):
        _, parent = grid33.dijkstra(0)
        assert parent[0] is None

    def test_dijkstra_tie_break_prefers_fewer_hops(self):
        # Two shortest 0→3 paths of weight 2: direct edge (1 hop, weight 2)
        # vs 0-1-3 (2 hops).
        g = WeightedGraph(
            range(4), [(0, 1, 1), (1, 3, 1), (0, 3, 2), (1, 2, 5), (2, 3, 5)]
        )
        assert g.shortest_path(0, 3) == [0, 3]

    def test_all_pairs_symmetric(self, grid33):
        apd = grid33.all_pairs_distances()
        for u in grid33.nodes:
            for v in grid33.nodes:
                assert apd[u][v] == apd[v][u]

    def test_matches_networkx(self, rng):
        g = nx.gnp_random_graph(12, 0.4, seed=7)
        if not nx.is_connected(g):
            g = nx.compose(g, nx.path_graph(12))
        for u, v in g.edges:
            g[u][v]["weight"] = rng.randint(1, 9)
        wg = WeightedGraph.from_networkx(g)
        nxd = dict(nx.all_pairs_dijkstra_path_length(g))
        apd = wg.all_pairs_distances()
        for u in wg.nodes:
            for v in wg.nodes:
                assert apd[u][v] == nxd[u][v]


class TestMetrics:
    def test_path_metrics(self, path5):
        assert path5.unweighted_diameter() == 4
        assert path5.weighted_diameter() == 4
        assert path5.shortest_path_diameter() == 4

    def test_grid_metrics(self, grid33):
        assert grid33.unweighted_diameter() == 4
        assert grid33.weighted_diameter() == 4
        assert grid33.shortest_path_diameter() == 4

    def test_s_exceeds_D_with_heavy_shortcut(self):
        # Star hub gives D = 2, but weighted shortest paths hug the path,
        # so s equals the path length.
        from repro.lowerbounds import path_gadget

        inst = path_gadget(10)
        assert inst.graph.unweighted_diameter() == 2
        assert inst.graph.shortest_path_diameter() == 10

    def test_metric_ordering_D_le_s(self, rng):
        for seed in range(5):
            g = nx.gnp_random_graph(10, 0.4, seed=seed)
            if not nx.is_connected(g):
                g = nx.compose(g, nx.path_graph(10))
            for u, v in g.edges:
                g[u][v]["weight"] = rng.randint(1, 9)
            wg = WeightedGraph.from_networkx(g)
            assert wg.unweighted_diameter() <= wg.shortest_path_diameter()
            assert wg.shortest_path_diameter() <= wg.weighted_diameter()

    def test_unit_weights_make_s_equal_D(self, grid44):
        assert (
            grid44.shortest_path_diameter() == grid44.unweighted_diameter()
        )


class TestBalls:
    def test_zero_radius_is_center_only(self, path5):
        ball = path5.ball(2, Fraction(0))
        assert ball.nodes == frozenset({2})
        assert ball.covered_weight() == 0

    def test_fractional_edge_coverage(self, path5):
        ball = path5.ball(0, Fraction(3, 2))
        assert ball.nodes == frozenset({0, 1})
        # Edge (0,1) fully covered; half of (1,2).
        assert ball.edge_fractions[(0, 1)] == 1
        assert ball.edge_fractions[(1, 2)] == Fraction(1, 2)

    def test_two_sided_coverage(self):
        g = WeightedGraph([0, 1], [(0, 1, 4)])
        ball = g.ball(0, Fraction(1))
        assert ball.edge_fractions[(0, 1)] == Fraction(1, 4)

    def test_coverage_capped_at_full_edge(self, path5):
        ball = path5.ball(0, Fraction(10))
        assert all(f == 1 for f in ball.edge_fractions.values())
        assert ball.nodes == frozenset(path5.nodes)

    def test_paper_example_weight3_edge(self):
        """Section 2's example: the only incident edge has weight 3; the
        radius-2 moat contains 2/3 of the edge."""
        g = WeightedGraph([0, 1, 2], [(0, 1, 3), (1, 2, 1)])
        ball = g.ball(0, Fraction(2))
        assert ball.nodes == frozenset({0})
        assert ball.edge_fractions[(0, 1)] == Fraction(2, 3)


class TestCanonicalEdge:
    def test_orders_by_repr(self):
        assert canonical_edge(2, 1) == (1, 2)
        assert canonical_edge(1, 2) == (1, 2)

    @given(st.integers(0, 99), st.integers(0, 99))
    def test_symmetric(self, a, b):
        assert canonical_edge(a, b) == canonical_edge(b, a)
