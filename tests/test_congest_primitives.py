"""Tests for BFS, broadcast/convergecast/upcast, Bellman–Ford, pipeline."""

from repro.congest import (
    CongestRun,
    MergeItem,
    bellman_ford,
    broadcast_items,
    build_bfs_tree,
    convergecast_aggregate,
    pipelined_filtered_upcast,
    upcast_items,
)
from repro.congest.bfs import default_root
from repro.model import WeightedGraph


class TestBFS:
    def test_depth_bounded_by_diameter(self, grid44):
        run = CongestRun(grid44)
        tree = build_bfs_tree(grid44, run)
        assert tree.depth <= grid44.unweighted_diameter()

    def test_rounds_linear_in_depth(self, grid44):
        run = CongestRun(grid44)
        tree = build_bfs_tree(grid44, run)
        assert run.rounds <= tree.depth + 2

    def test_default_root_is_max_id(self, grid44):
        assert default_root(grid44) == max(grid44.nodes, key=repr)

    def test_parents_form_tree(self, grid44):
        run = CongestRun(grid44)
        tree = build_bfs_tree(grid44, run, root=0)
        assert tree.parent[0] is None
        for v in grid44.nodes:
            if v != 0:
                assert tree.depth_of[tree.parent[v]] == tree.depth_of[v] - 1

    def test_depths_are_hop_distances(self, grid44):
        run = CongestRun(grid44)
        tree = build_bfs_tree(grid44, run, root=0)
        # Node 15 is 6 hops from corner 0 in the 4x4 grid.
        assert tree.depth_of[15] == 6

    def test_path_to_root(self, path5):
        run = CongestRun(path5)
        tree = build_bfs_tree(path5, run, root=0)
        assert tree.path_to_root(4) == [4, 3, 2, 1, 0]

    def test_orders(self, grid33):
        run = CongestRun(grid33)
        tree = build_bfs_tree(grid33, run, root=0)
        td = tree.nodes_top_down()
        bu = tree.nodes_bottom_up()
        assert td[0] == 0
        assert bu[-1] == 0
        assert set(td) == set(grid33.nodes)


class TestBroadcast:
    def test_pipelined_round_bound(self, grid44):
        run = CongestRun(grid44)
        tree = build_bfs_tree(grid44, run)
        start = run.rounds
        broadcast_items(tree, list(range(20)), run)
        assert run.rounds - start <= tree.depth + 20 + 1

    def test_empty_broadcast_free(self, grid44):
        run = CongestRun(grid44)
        tree = build_bfs_tree(grid44, run)
        start = run.rounds
        broadcast_items(tree, [], run)
        assert run.rounds == start

    def test_single_node_graph(self):
        g = WeightedGraph([0, 1], [(0, 1, 1)])
        run = CongestRun(g)
        tree = build_bfs_tree(g, run)
        assert broadcast_items(tree, [1, 2], run) == [1, 2]


class TestConvergecast:
    def test_sum(self, grid44):
        run = CongestRun(grid44)
        tree = build_bfs_tree(grid44, run)
        start = run.rounds
        total = convergecast_aggregate(
            tree, {v: 1 for v in grid44.nodes}, lambda a, b: a + b, run
        )
        assert total == 16
        assert run.rounds - start <= tree.depth + 1

    def test_min(self, grid44):
        run = CongestRun(grid44)
        tree = build_bfs_tree(grid44, run)
        result = convergecast_aggregate(
            tree, {v: v for v in grid44.nodes}, min, run
        )
        assert result == 0


class TestUpcast:
    def test_collects_distinct(self, grid44):
        run = CongestRun(grid44)
        tree = build_bfs_tree(grid44, run)
        items = upcast_items(
            tree, {v: [v % 4] for v in grid44.nodes}, run
        )
        assert items == [0, 1, 2, 3]

    def test_round_bound_depth_plus_items(self, grid44):
        run = CongestRun(grid44)
        tree = build_bfs_tree(grid44, run)
        start = run.rounds
        upcast_items(tree, {v: [v] for v in grid44.nodes}, run)
        assert run.rounds - start <= 2 * tree.depth + 16 + 2

    def test_custom_key_dedup(self, grid44):
        run = CongestRun(grid44)
        tree = build_bfs_tree(grid44, run)
        items = upcast_items(
            tree,
            {v: [(v, "payload")] for v in grid44.nodes},
            run,
            key=lambda item: item[0] % 2,
        )
        assert len(items) == 2


class TestBellmanFord:
    def test_single_source_distances(self, grid44):
        run = CongestRun(grid44)
        result = bellman_ford(grid44, {0: (0, "src")}, run)
        apd = grid44.all_pairs_distances()
        for v in grid44.nodes:
            assert result.dist[v] == apd[0][v]

    def test_iterations_bounded_by_s(self, grid44):
        run = CongestRun(grid44)
        result = bellman_ford(grid44, {0: (0, "src")}, run)
        assert result.iterations <= grid44.shortest_path_diameter() + 1

    def test_voronoi_tags(self, path5):
        run = CongestRun(path5)
        result = bellman_ford(path5, {0: (0, "L"), 4: (0, "R")}, run)
        assert result.tag[1] == "L"
        assert result.tag[3] == "R"

    def test_tie_breaks_lexicographically(self, path5):
        run = CongestRun(path5)
        result = bellman_ford(path5, {0: (0, "A"), 4: (0, "B")}, run)
        # Node 2 at distance 2 from both: tag "A" < "B" wins.
        assert result.tag[2] == "A"

    def test_blocked_nodes_frozen(self, path5):
        run = CongestRun(path5)
        result = bellman_ford(
            path5, {0: (0, "src")}, run, blocked={2}
        )
        assert 2 not in result.dist
        assert 3 not in result.dist  # unreachable behind the block

    def test_max_iterations_cutoff(self, path5):
        run = CongestRun(path5)
        result = bellman_ford(
            path5, {0: (0, "src")}, run, max_iterations=2
        )
        assert not result.stabilized
        assert 4 not in result.dist

    def test_reduced_weights_on_a_finer_grid(self, path5):
        # Scale 2: every unit edge weighs 2, and a leftover of 1 at nodes
        # 1 and 3 covers half of each edge, so Ŵ = 1 (= 1/2) per edge.
        run = CongestRun(path5)
        result = bellman_ford(
            path5, {0: (0, "src")}, run, leftover={1: 1, 3: 1}, scale=2
        )
        assert list(result.dist.items()) == [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]

    def test_zero_weight_edges_terminate(self, path5):
        run = CongestRun(path5)
        result = bellman_ford(
            path5, {0: (0, "s")}, run, leftover=dict.fromkeys(path5.nodes, 1)
        )
        assert result.stabilized
        assert all(result.dist[v] == 0 for v in path5.nodes)

    def test_parent_chains_acyclic(self, grid44):
        run = CongestRun(grid44)
        result = bellman_ford(
            grid44,
            {0: (0, "a"), 15: (0, "b")},
            run,
            leftover=dict.fromkeys(grid44.nodes, 1),
        )
        for v in grid44.nodes:
            seen = set()
            x = v
            while result.parent.get(x) is not None:
                assert x not in seen, "parent cycle"
                seen.add(x)
                x = result.parent[x]

    def test_initial_distances_respected(self, path5):
        run = CongestRun(path5)
        result = bellman_ford(
            path5, {0: (10, "far"), 4: (0, "near")}, run
        )
        # Node 2: via 0 costs 12, via 4 costs 2.
        assert result.tag[2] == "near"


class TestPipelinedFilteredUpcast:
    def _tree(self, graph):
        run = CongestRun(graph)
        return build_bfs_tree(graph, run), run

    def test_cycle_filtered(self, grid44):
        tree, run = self._tree(grid44)
        items = {
            0: [MergeItem((1,), "x", "y")],
            5: [MergeItem((2,), "y", "z")],
            10: [MergeItem((3,), "x", "z")],  # closes a cycle
        }
        accepted = pipelined_filtered_upcast(tree, items, {}, run)
        assert [m.key for m in accepted] == [(1,), (2,)]

    def test_base_components_respected(self, grid44):
        tree, run = self._tree(grid44)
        items = {0: [MergeItem((1,), "x", "y")]}
        accepted = pipelined_filtered_upcast(
            tree, items, {"x": "c", "y": "c"}, run
        )
        assert accepted == []

    def test_duplicates_deduplicated(self, grid44):
        tree, run = self._tree(grid44)
        items = {
            0: [MergeItem((1,), "x", "y")],
            15: [MergeItem((1,), "x", "y")],
        }
        accepted = pipelined_filtered_upcast(tree, items, {}, run)
        assert len(accepted) == 1

    def test_stop_predicate_truncates(self, grid44):
        tree, run = self._tree(grid44)
        items = {
            0: [MergeItem((1,), "a", "b")],
            1: [MergeItem((2,), "b", "c")],
            2: [MergeItem((3,), "c", "d")],
        }
        accepted = pipelined_filtered_upcast(
            tree, items, {}, run,
            stop_predicate=lambda prefix: len(prefix) == 2,
        )
        assert [m.key for m in accepted] == [(1,), (2,)]

    def test_round_bound(self, grid44):
        tree, run = self._tree(grid44)
        items = {
            v: [MergeItem((v,), f"a{v}", f"b{v}")] for v in grid44.nodes
        }
        start = run.rounds
        accepted = pipelined_filtered_upcast(tree, items, {}, run)
        assert run.rounds - start <= 3 * tree.depth + len(accepted) + 18

    def test_merge_item_ordering(self):
        assert MergeItem((1, 2), "a", "b") < MergeItem((1, 3), "a", "b")
        assert MergeItem((1,), "a", "b") == MergeItem((1,), "c", "d")
