"""Tests for Algorithm 1 — centralized moat growing (Theorem 4.1)."""

import random
from fractions import Fraction

import pytest

from repro.core.moat import MoatPartition, moat_growing
from repro.exact import steiner_forest_cost
from repro.model import SteinerForestInstance, WeightedGraph
from tests.conftest import make_random_instance


class TestSimpleInstances:
    def test_two_terminals_shortest_path(self, triangle):
        inst = SteinerForestInstance(triangle, {0: "x", 2: "x"})
        result = moat_growing(inst)
        assert result.solution.weight == triangle.distance(0, 2)

    def test_trivial_instance_empty_output(self, triangle):
        inst = SteinerForestInstance(triangle, {0: "x"})
        result = moat_growing(inst)
        assert result.solution.edges == frozenset()
        assert result.events == []

    def test_two_separate_pairs(self, path5):
        inst = SteinerForestInstance(
            path5, {0: "a", 1: "a", 3: "b", 4: "b"}
        )
        result = moat_growing(inst)
        assert result.solution.edges == frozenset({(0, 1), (3, 4)})
        assert result.solution.weight == 2

    def test_equidistant_pair_merge_time(self, path5):
        """Two terminals at distance 4 merge after growth µ = 2 each."""
        inst = SteinerForestInstance(path5, {0: "x", 4: "x"})
        result = moat_growing(inst)
        assert len(result.events) == 1
        assert result.events[0].mu == Fraction(2)
        assert result.radii[0] == Fraction(2)
        assert result.radii[4] == Fraction(2)

    def test_half_integral_merge(self):
        g = WeightedGraph([0, 1], [(0, 1, 3)])
        inst = SteinerForestInstance(g, {0: "x", 1: "x"})
        result = moat_growing(inst)
        assert result.events[0].mu == Fraction(3, 2)

    def test_inactive_moat_absorbed_one_sided(self):
        """A satisfied pair sits between two distant partners: the merged
        moat goes inactive, then an active moat reaches it one-sidedly."""
        # Path: A --1-- c1 --1-- c2 --10-- B, labels: {c1,c2}, {A,B}.
        g = WeightedGraph(
            ["A", "c1", "c2", "B"],
            [("A", "c1", 4), ("c1", "c2", 1), ("c2", "B", 10)],
        )
        inst = SteinerForestInstance(
            g, {"c1": "c", "c2": "c", "A": "x", "B": "x"}
        )
        result = moat_growing(inst)
        assert result.solution.is_feasible(inst)
        # The c-moat (inactive after its merge) is traversed by the A–B
        # connection; at least one merge involves an inactive moat.
        assert result.num_merge_phases >= 2


class TestGuarantees:
    @pytest.mark.parametrize("seed", range(12))
    def test_two_approximation(self, seed):
        inst = make_random_instance(seed)
        opt = steiner_forest_cost(inst)
        result = moat_growing(inst)
        result.solution.assert_feasible(inst)
        assert result.solution.is_forest()
        if opt > 0:
            assert result.solution.weight <= 2 * opt

    @pytest.mark.parametrize("seed", range(12))
    def test_dual_lower_bound_certified(self, seed):
        """Lemma C.4: Σ actᵢ µᵢ lower-bounds the optimum."""
        inst = make_random_instance(seed)
        opt = steiner_forest_cost(inst)
        result = moat_growing(inst)
        assert result.dual_lower_bound <= opt

    @pytest.mark.parametrize("seed", range(12))
    def test_solution_within_twice_dual(self, seed):
        """Theorem 4.1's accounting: W(F) < 2 Σ actᵢ µᵢ."""
        inst = make_random_instance(seed)
        result = moat_growing(inst)
        if result.events:
            assert result.solution.weight <= 2 * result.dual_lower_bound

    @pytest.mark.parametrize("seed", range(12))
    def test_merge_phase_bound(self, seed):
        """Lemma 4.4: at most 2k merge phases."""
        inst = make_random_instance(seed)
        result = moat_growing(inst)
        assert result.num_merge_phases <= 2 * inst.num_components + 1

    @pytest.mark.parametrize("seed", range(8))
    def test_forest_before_pruning(self, seed):
        inst = make_random_instance(seed)
        result = moat_growing(inst)
        assert result.forest.is_forest()

    @pytest.mark.parametrize("seed", range(8))
    def test_merges_bounded_by_terminals(self, seed):
        inst = make_random_instance(seed)
        result = moat_growing(inst)
        assert len(result.events) <= inst.num_terminals

    def test_mst_special_case_exact(self, grid33):
        """Section 1: k = 1, t = n specializes to an exact MST."""
        import networkx as nx

        inst = SteinerForestInstance(grid33, {v: 0 for v in grid33.nodes})
        result = moat_growing(inst)
        mst = nx.minimum_spanning_tree(grid33.to_networkx())
        expected = sum(d["weight"] for _, _, d in mst.edges(data=True))
        assert result.solution.weight == expected

    def test_radii_monotone_events(self):
        inst = make_random_instance(5)
        result = moat_growing(inst)
        mus = [e.mu for e in result.events]
        assert all(mu >= 0 for mu in mus)


def _activity(partition):
    return {v: partition.is_active(v) for v in partition.terminals}


def _state(partition):
    """The moats as sets of terminals, and every terminal's activity."""
    moats = {}
    for v, r in partition.component_map().items():
        moats.setdefault(r, set()).add(v)
    return {frozenset(m) for m in moats.values()}, _activity(partition)


class TestMoatPartition:
    def _pairs_path(self, path5):
        # Labels a = {0, 1}, b = {3, 4}, c = {2} (satisfied from the start).
        return SteinerForestInstance(
            path5, {0: "a", 1: "a", 2: "c", 3: "b", 4: "b"}
        )

    def test_copy_is_independent_of_its_source(self, path5):
        source = MoatPartition(self._pairs_path(path5))
        source.merge(0, 2)
        copy = source.copy()
        assert _state(copy) == _state(source)
        before = _state(source)
        copy.merge(0, 1)
        copy.merge(3, 4)
        assert _state(source) == before
        assert not copy.has_active()
        copy_before = _state(copy)
        source.merge(3, 2)
        assert _state(copy) == copy_before

    def test_merge_completing_a_label_class_goes_inactive(self, path5):
        partition = MoatPartition(self._pairs_path(path5))
        assert partition.merge(0, 1) is True
        assert not partition.is_active(0) and not partition.is_active(1)
        assert partition.merge(2, 3) is True  # 2 flips to active
        assert partition.is_active(2)
        assert partition.merge(3, 4) is True
        assert not partition.has_active()

    def test_keep_active_holds_until_recompute(self, path5):
        partition = MoatPartition(self._pairs_path(path5))
        assert partition.merge(0, 1, keep_active=True) is False
        assert partition.is_active(0) and partition.is_active(1)
        assert partition.active_moat_count() == 3
        assert partition.recompute_activity() is True
        assert not partition.is_active(0) and not partition.is_active(1)
        assert partition.is_active(3)
        assert partition.recompute_activity() is False

    def test_rank_orders_as_repr_and_equal_reprs_share_it(self):
        class Named:
            def __init__(self, name):
                self.name = name

            def __repr__(self):
                return self.name

        a1, a2, b = Named("a"), Named("a"), Named("b")
        graph = WeightedGraph(
            [a1, a2, b, 10, "x"],
            [(a1, a2, 1), (a2, b, 1), (b, 10, 1), (10, "x", 1)],
        )
        inst = SteinerForestInstance(graph, {a1: 0, a2: 0, b: 1, 10: 1, "x": 2})
        partition = MoatPartition(inst)
        rank = partition.rank
        assert rank[a1] == rank[a2]
        for v in partition.terminals:
            for w in partition.terminals:
                assert (rank[v] < rank[w]) == (repr(v) < repr(w))
        assert sorted(rank.values()) == [0, 1, 2, 2, 3]
        assert partition.copy().rank == rank

    @pytest.mark.parametrize("keep_active", [False, True])
    @pytest.mark.parametrize("seed", range(20))
    def test_return_value_is_exactly_an_activity_flip(self, seed, keep_active):
        """merge / recompute_activity return True iff some terminal's
        activity differs afterwards (Definition 4.3's boundary)."""
        inst = make_random_instance(seed, k_range=(2, 4), comp_size_range=(1, 3))
        partition = MoatPartition(inst)
        rng = random.Random(seed)
        while len(set(partition.component_map().values())) > 1:
            v, w = rng.sample(partition.terminals, 2)
            if partition.rep(v) == partition.rep(w):
                continue
            before = _activity(partition)
            flipped = partition.merge(v, w, keep_active=keep_active)
            assert flipped == (_activity(partition) != before)
            if rng.random() < 0.3:
                before = _activity(partition)
                flipped = partition.recompute_activity()
                assert flipped == (_activity(partition) != before)
