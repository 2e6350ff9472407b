"""Property-based tests (hypothesis) on core invariants."""

import random

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.core import distributed_moat_growing, moat_growing
from repro.core.rounded import rounded_moat_growing
from repro.model import ForestSolution, WeightedGraph
from repro.model.instance import instance_from_components
from repro.model.transforms import (
    components_to_requests,
    requests_to_components,
)
from repro.randomized.le_lists import le_list_of_row
from tests.conftest import le_list_by_sort


@st.composite
def small_instances(draw):
    """Random connected weighted graphs with 1–3 components of 2 nodes."""
    n = draw(st.integers(6, 12))
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    g = nx.gnp_random_graph(n, 0.45, seed=seed)
    if not nx.is_connected(g):
        g = nx.compose(g, nx.path_graph(n))
    for u, v in g.edges:
        g[u][v]["weight"] = rng.randint(1, 15)
    graph = WeightedGraph.from_networkx(g)
    nodes = list(graph.nodes)
    rng.shuffle(nodes)
    k = draw(st.integers(1, 3))
    components = [nodes[2 * i: 2 * i + 2] for i in range(k)]
    return instance_from_components(graph, components)


class TestMoatProperties:
    @given(small_instances())
    @settings(max_examples=20, deadline=None)
    def test_feasibility_and_dual_sandwich(self, inst):
        """W(sol) ≤ 2 Σ actᵢµᵢ and the solution is a feasible forest."""
        result = moat_growing(inst)
        result.solution.assert_feasible(inst)
        assert result.solution.is_forest()
        if result.events:
            assert result.solution.weight <= 2 * result.dual_lower_bound

    @given(small_instances())
    @settings(max_examples=12, deadline=None)
    def test_distributed_matches_centralized_guarantee(self, inst):
        """With tied path weights the two runs may legally pick different
        least-weight paths (the paper assumes distinct weights, Section 2),
        so hypothesis asserts the *certified* property: both outputs are
        feasible and within twice the centralized dual lower bound.
        (Exact merge-by-merge equality is asserted on tie-free instances
        in tests/test_distributed.py.)"""
        central = moat_growing(inst)
        dist = distributed_moat_growing(inst)
        dist.solution.assert_feasible(inst)
        if central.events:
            assert dist.solution.weight <= 2 * central.dual_lower_bound
            assert central.solution.weight <= 2 * central.dual_lower_bound

    @given(small_instances())
    @settings(max_examples=15, deadline=None)
    def test_rounded_never_better_than_half_dual(self, inst):
        result = rounded_moat_growing(inst, 1)
        result.solution.assert_feasible(inst)
        # Corollary D.1 with ε = 1: 1.5 · W(sol) ≥ ... ≥ dual/... sanity:
        assert result.dual_lower_bound <= 3 * max(1, result.solution.weight)


class TestModelProperties:
    @given(small_instances())
    @settings(max_examples=20, deadline=None)
    def test_minimal_subforest_is_minimal(self, inst):
        result = moat_growing(inst)
        minimal = result.solution
        for edge in minimal.edges:
            reduced = ForestSolution(inst.graph, minimal.edges - {edge})
            assert not reduced.is_feasible(inst)

    @given(small_instances())
    @settings(max_examples=20, deadline=None)
    def test_transform_roundtrip_preserves_partition(self, inst):
        back = requests_to_components(components_to_requests(inst))
        orig = sorted(
            sorted(repr(x) for x in c)
            for c in inst.components.values()
            if len(c) >= 2
        )
        again = sorted(
            sorted(repr(x) for x in c)
            for c in back.components.values()
            if len(c) >= 2
        )
        assert orig == again

    @given(small_instances())
    @settings(max_examples=20, deadline=None)
    def test_metric_ordering(self, inst):
        g = inst.graph
        assert (
            g.unweighted_diameter()
            <= g.shortest_path_diameter()
            <= g.weighted_diameter()
        )


_NODE_LABELS = {
    "int": lambda i: i,
    "str": lambda i: f"v{i}",
    "tuple": lambda i: (i % 3, i // 3),
}


@st.composite
def ranked_rows(draw):
    """A rank permutation over 1–24 nodes of one label type and a
    distance row over a subset of them (a partial row, as the
    distributed pruning sees): distances from a small range, so many
    are equal, with zero more likely than any other value, as
    zero-weight edges give."""
    label = _NODE_LABELS[draw(st.sampled_from(sorted(_NODE_LABELS)))]
    nodes = [label(i) for i in range(draw(st.integers(1, 24)))]
    ranks = draw(st.permutations(range(len(nodes))))
    rank = dict(zip(nodes, ranks))
    present = draw(st.lists(st.booleans(), min_size=len(nodes),
                            max_size=len(nodes)))
    distance = st.one_of(st.just(0), st.integers(0, 4))
    row = {u: draw(distance) for u, keep in zip(nodes, present) if keep}
    return row, rank


class TestLeListProperties:
    @given(ranked_rows())
    @settings(max_examples=300, deadline=None)
    def test_rank_walk_matches_distance_sort(self, case):
        """One walk in decreasing rank with a running minimum gives the
        list the (distance, −rank) sort gives."""
        row, rank = case
        descending = sorted(row, key=rank.__getitem__, reverse=True)
        assert le_list_of_row(row, descending) == le_list_by_sort(row, rank)
