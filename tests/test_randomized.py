"""Tests for the randomized algorithm (Section 5, Theorem 5.2)."""

import math
import random
from fractions import Fraction

import pytest

from repro.congest import CongestRun
from repro.congest.bellman_ford import bellman_ford
from repro.congest.bfs import build_bfs_tree
from repro.exact import steiner_forest_cost
from repro.model import ForestSolution
from repro.randomized import (
    build_embedding,
    build_reduced_instance,
    first_stage_selection,
    randomized_steiner_forest,
)
from repro.randomized.embedding import (
    _BETA_RESOLUTION,
    _measure_embedding_paths,
)
from repro.randomized.le_lists import ancestor_from_le_list
from repro.workloads import random_connected_graph, torus_graph
from tests.conftest import le_list_by_sort, make_random_instance


class TestEmbedding:
    def _embed(self, graph, seed=0, truncate_at=None):
        run = CongestRun(graph)
        return build_embedding(
            graph, run, random.Random(seed), truncate_at=truncate_at
        ), run

    def test_ancestor_ranks_nondecreasing(self, grid44):
        emb, _ = self._embed(grid44)
        for v in grid44.nodes:
            ranks = [emb.rank[a] for a in emb.ancestors[v]]
            assert ranks == sorted(ranks)

    def test_top_ancestor_is_global_max(self, grid44):
        emb, _ = self._embed(grid44)
        top = max(grid44.nodes, key=lambda v: emb.rank[v])
        for v in grid44.nodes:
            assert emb.ancestors[v][-1] == top

    def test_ancestor_within_ball(self, grid44):
        emb, _ = self._embed(grid44)
        apd = grid44.all_pairs_distances()
        for v in grid44.nodes:
            for i, anc in enumerate(emb.ancestors[v]):
                assert apd[v][anc] <= emb.beta * (1 << i)

    def test_beta_in_range(self, grid44):
        emb, _ = self._embed(grid44, seed=3)
        assert 1 <= emb.beta <= 2

    def test_truncation_stops_at_s_nodes(self, grid44):
        emb, _ = self._embed(grid44, truncate_at=4)
        assert len(emb.s_nodes) == 4
        for v in grid44.nodes:
            for anc in emb.ancestors[v]:
                assert anc not in emb.s_nodes

    def test_truncated_nodes_know_nearest_s(self, grid44):
        emb, _ = self._embed(grid44, truncate_at=4)
        for v in grid44.nodes:
            if emb.truncation_level[v] < emb.levels:
                assert emb.nearest_s[v] is not None

    def test_paths_per_node_logarithmic_shape(self, grid44):
        """The paper's key structural claim: O(log n) distinct embedding
        paths per node w.h.p. — allow a generous constant."""
        emb, _ = self._embed(grid44)
        n = grid44.num_nodes
        assert emb.max_paths_per_node <= 12 * math.log2(n) + 4

    def test_rounds_charged(self, grid44):
        _, run = self._embed(grid44)
        assert run.rounds > 0


def _sort_based_embedding(graph, run, rng, truncate_at):
    """``build_embedding`` as it was when every distance row was sorted
    by (distance, −rank) and S was the rank-sorted prefix of all nodes."""
    nodes = list(graph.nodes)
    n = len(nodes)
    permutation = list(nodes)
    rng.shuffle(permutation)
    rank = {v: i for i, v in enumerate(permutation)}
    beta = 1 + Fraction(rng.randrange(_BETA_RESOLUTION), _BETA_RESOLUTION)
    wd = graph.weighted_diameter()
    levels = max(1, math.ceil(math.log2(max(2, wd)))) + 1
    s_nodes = set()
    nearest_s = {v: None for v in nodes}
    if truncate_at is not None and truncate_at > 0:
        s_nodes = set(
            sorted(nodes, key=lambda v: rank[v], reverse=True)[:truncate_at]
        )
        hop_cap = max(
            1, math.isqrt(n) * max(1, math.ceil(math.log2(max(2, n)))))
        voronoi = bellman_ford(
            graph,
            {v: (0, v) for v in sorted(s_nodes, key=repr)},
            run,
            max_iterations=hop_cap,
        )
        for v in nodes:
            nearest_s[v] = voronoi.tag.get(v)
    apd = graph.all_pairs_distances()
    radii = [(beta.numerator << i) // beta.denominator for i in range(levels)]
    ancestors, truncation_level = {}, {}
    for v in nodes:
        le_list = le_list_by_sort(apd[v], rank)
        chain, cutoff = [], levels
        for i, radius in enumerate(radii):
            best = ancestor_from_le_list(le_list, radius)
            if s_nodes and best in s_nodes:
                cutoff = i
                break
            chain.append(best)
        ancestors[v] = chain
        truncation_level[v] = cutoff
    build_bfs_tree(graph, run)
    hop_bound, max_paths = _measure_embedding_paths(graph, ancestors, nearest_s)
    run.charge_rounds(levels * max(1, hop_bound), "LE-list level sweeps")
    return {
        "ancestors": ancestors,
        "truncation_level": truncation_level,
        "s_nodes": s_nodes,
        "nearest_s": nearest_s,
        "max_paths": max_paths,
    }


class TestEmbeddingMatchesSortedRows:
    """The rank walk changes no output of the embedding: every field and
    the ledger's rounds and messages equal those of the sort-based
    construction, with and without truncation."""

    @pytest.mark.parametrize("truncate_at", [None, 16])
    @pytest.mark.parametrize("family", ["gnp256", "torus16"])
    def test_same_embedding_and_ledger(self, family, truncate_at):
        graph_rng = random.Random(7)
        graph = (
            random_connected_graph(256, 0.03, graph_rng)
            if family == "gnp256"
            else torus_graph(16, 16, graph_rng)
        )
        for seed in (0, 1):
            run = CongestRun(graph)
            emb = build_embedding(
                graph, run, random.Random(seed), truncate_at=truncate_at
            )
            spec_run = CongestRun(graph)
            spec = _sort_based_embedding(
                graph, spec_run, random.Random(seed), truncate_at
            )
            assert emb.ancestors == spec["ancestors"]
            assert emb.truncation_level == spec["truncation_level"]
            assert emb.s_nodes == spec["s_nodes"]
            assert emb.nearest_s == spec["nearest_s"]
            assert emb.max_paths_per_node == spec["max_paths"]
            assert (run.rounds, run.messages) == (
                spec_run.rounds, spec_run.messages
            )
            if truncate_at:
                assert len(emb.s_nodes) == truncate_at
                assert any(
                    level < emb.levels
                    for level in emb.truncation_level.values()
                )


class TestFirstStage:
    def test_resolves_all_labels_without_truncation(self):
        inst = make_random_instance(7)
        run = CongestRun(inst.graph)
        emb = build_embedding(inst.graph, run, random.Random(1))
        stage = first_stage_selection(inst, emb, run)
        labels = set(inst.labels.values())
        assert stage.resolved == labels

    def test_selected_edges_feasible_without_truncation(self):
        """Corollary G.10: for S = ∅ the first stage already solves the
        instance."""
        for seed in range(5):
            inst = make_random_instance(seed)
            run = CongestRun(inst.graph)
            emb = build_embedding(inst.graph, run, random.Random(seed))
            stage = first_stage_selection(inst, emb, run)
            sol = ForestSolution(inst.graph, stage.edges)
            sol.assert_feasible(inst)

    def test_naive_routing_not_faster(self):
        inst = make_random_instance(3, n_range=(14, 14), k_range=(3, 3))
        run1 = CongestRun(inst.graph)
        emb = build_embedding(inst.graph, run1, random.Random(5))
        pipelined = first_stage_selection(inst, emb, run1)
        run2 = CongestRun(inst.graph)
        naive = first_stage_selection(inst, emb, run2, naive=True)
        assert naive.routing_rounds >= pipelined.routing_rounds

    def test_multiplex_factor_recorded(self):
        inst = make_random_instance(2)
        run = CongestRun(inst.graph)
        emb = build_embedding(inst.graph, run, random.Random(2))
        stage = first_stage_selection(inst, emb, run)
        assert stage.multiplex_factor >= 1


class TestReducedInstance:
    def test_reduced_terminals_bounded_by_s(self):
        inst = make_random_instance(4, n_range=(16, 16), k_range=(2, 3))
        run = CongestRun(inst.graph)
        truncate = max(1, math.isqrt(inst.graph.num_nodes))
        emb = build_embedding(
            inst.graph, run, random.Random(4), truncate_at=truncate
        )
        stage = first_stage_selection(inst, emb, run)
        reduced = build_reduced_instance(inst, stage, emb.s_nodes, run)
        if reduced is not None:
            # Super-terminals are clusters (≤ |S|) plus w.h.p.-empty strays.
            cluster_terms = [
                v
                for v in reduced.instance.terminals
                if isinstance(v, tuple) and v[0] == "cluster"
            ]
            assert len(cluster_terms) <= len(emb.s_nodes)

    def test_reduced_optimum_at_most_original(self):
        """Lemma G.14 (spot check)."""
        inst = make_random_instance(8, n_range=(12, 12), k_range=(2, 2))
        run = CongestRun(inst.graph)
        emb = build_embedding(
            inst.graph, run, random.Random(8), truncate_at=3
        )
        stage = first_stage_selection(inst, emb, run)
        reduced = build_reduced_instance(inst, stage, emb.s_nodes, run)
        if reduced is not None and reduced.instance.num_components <= 4:
            assert steiner_forest_cost(reduced.instance) <= (
                steiner_forest_cost(inst)
            )


class TestFullAlgorithm:
    @pytest.mark.parametrize("seed", range(6))
    def test_feasible_both_regimes(self, seed):
        inst = make_random_instance(seed)
        for force in (False, True):
            result = randomized_steiner_forest(
                inst, rng=random.Random(seed), force_truncation=force
            )
            result.solution.assert_feasible(inst)

    @pytest.mark.parametrize("seed", range(6))
    def test_logn_approximation_shape(self, seed):
        """O(log n) ratio with a generous constant (expectation bound)."""
        inst = make_random_instance(seed)
        opt = steiner_forest_cost(inst)
        result = randomized_steiner_forest(inst, rng=random.Random(seed))
        if opt > 0:
            n = inst.graph.num_nodes
            assert result.solution.weight <= 8 * math.log2(n) * opt

    def test_repetitions_never_worse_in_expectation(self):
        inst = make_random_instance(9)
        single = randomized_steiner_forest(
            inst, rng=random.Random(1), repetitions=1
        )
        multi = randomized_steiner_forest(
            inst, rng=random.Random(1), repetitions=4
        )
        assert multi.solution.weight <= single.solution.weight

    def test_ratio_statistics_over_seeds(self):
        """Average ratio over seeds stays well under the log n envelope."""
        inst = make_random_instance(10, k_range=(2, 2))
        opt = steiner_forest_cost(inst)
        if opt == 0:
            pytest.skip("trivial instance")
        ratios = []
        for seed in range(8):
            result = randomized_steiner_forest(
                inst, rng=random.Random(seed)
            )
            ratios.append(result.solution.weight / opt)
        assert sum(ratios) / len(ratios) <= 4.0

    def test_rounds_recorded(self):
        inst = make_random_instance(11)
        result = randomized_steiner_forest(inst, rng=random.Random(0))
        assert result.rounds > 0
        assert result.run.phase_rounds
