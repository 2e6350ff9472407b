"""Tests for least-element lists."""

import math
import random

import pytest

from repro.congest import CongestRun
from repro.randomized.le_lists import (
    ancestor_from_le_list,
    distributed_le_lists,
    le_list_of_row,
    le_list_reference,
)
from repro.workloads import random_connected_graph, torus_graph


def _random_ranks(graph, seed):
    nodes = list(graph.nodes)
    rng = random.Random(seed)
    rng.shuffle(nodes)
    return {v: i for i, v in enumerate(nodes)}


class TestReference:
    def test_starts_at_self_ends_at_top(self, grid33):
        rank = _random_ranks(grid33, 1)
        top = max(grid33.nodes, key=lambda v: rank[v])
        for v in grid33.nodes:
            le = le_list_reference(grid33, rank, v)
            assert le[0] == (0, v)
            assert le[-1][1] == top

    def test_ranks_strictly_increase(self, grid33):
        rank = _random_ranks(grid33, 2)
        for v in grid33.nodes:
            le = le_list_reference(grid33, rank, v)
            ranks = [rank[u] for _, u in le]
            assert ranks == sorted(ranks)
            assert len(set(ranks)) == len(ranks)

    def test_expected_logarithmic_length(self):
        """|LE(v)| is O(log n) in expectation over the rank order."""
        graph = random_connected_graph(24, 0.2, random.Random(3))
        lengths = []
        for seed in range(10):
            rank = _random_ranks(graph, seed)
            for v in list(graph.nodes)[:5]:
                lengths.append(len(le_list_reference(graph, rank, v)))
        mean = sum(lengths) / len(lengths)
        assert mean <= 4 * math.log(graph.num_nodes)

    @pytest.mark.parametrize("seed", range(6))
    def test_repr_tie_break_was_never_reached(self, seed):
        """Ranks are a permutation, so (distance, -rank) is already a
        total order: dropping the repr key leaves every list unchanged,
        also with int nodes past 9 and tuple nodes, on rows full of
        equal distances."""
        rng = random.Random(seed)
        graphs = [
            random_connected_graph(40, 0.15, rng, max_weight=2),
            torus_graph(5, 6, rng, max_weight=2),
        ]
        for graph in graphs:
            rank = _random_ranks(graph, seed)
            for v in graph.nodes:
                row = graph.all_pairs_distances([v])[v]
                ordered = sorted(
                    row, key=lambda u: (row[u], -rank[u], repr(u))
                )
                expected, best = [], -1
                for u in ordered:
                    if rank[u] > best:
                        best = rank[u]
                        expected.append((row[u], u))
                descending = sorted(row, key=rank.__getitem__, reverse=True)
                assert le_list_of_row(row, descending) == expected


class TestDistributed:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference(self, grid33, seed):
        rank = _random_ranks(grid33, seed)
        run = CongestRun(grid33)
        lists = distributed_le_lists(grid33, rank, run)
        for v in grid33.nodes:
            assert lists[v] == le_list_reference(grid33, rank, v)

    def test_rounds_charged(self, grid33):
        rank = _random_ranks(grid33, 0)
        run = CongestRun(grid33)
        distributed_le_lists(grid33, rank, run)
        assert run.rounds > 0

    def test_random_graph_matches(self):
        graph = random_connected_graph(14, 0.3, random.Random(5))
        rank = _random_ranks(graph, 9)
        run = CongestRun(graph)
        lists = distributed_le_lists(graph, rank, run)
        for v in list(graph.nodes)[:6]:
            assert lists[v] == le_list_reference(graph, rank, v)


class TestAncestorLookup:
    def test_highest_rank_within_radius(self, grid33):
        rank = _random_ranks(grid33, 4)
        apd = grid33.all_pairs_distances()
        for v in grid33.nodes:
            le = le_list_reference(grid33, rank, v)
            for radius in (0, 1, 2, 4):
                expected = max(
                    (u for u in grid33.nodes if apd[v][u] <= radius),
                    key=lambda u: rank[u],
                )
                assert ancestor_from_le_list(le, radius) == expected

    def test_radius_below_zero_entries(self):
        assert ancestor_from_le_list([(1, "a")], 0) is None
