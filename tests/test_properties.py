"""Property-based tests (hypothesis) on core invariants."""

import random
from fractions import Fraction

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.core import distributed_moat_growing, moat_growing
from repro.core.moat import MoatPartition
from repro.core.rounded import _as_fraction, rounded_moat_growing
from repro.model import ForestSolution, WeightedGraph
from repro.model.graph import canonical_edge
from repro.model.instance import instance_from_components
from repro.model.transforms import (
    components_to_requests,
    requests_to_components,
)
from repro.randomized.le_lists import le_list_of_row
from repro.util import UnionFind
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


def fraction_moat_growing(instance, epsilon=None):
    """Algorithm 1 (``epsilon`` None) or Algorithm 2 with Fraction radii:
    every event searched over all terminal pairs in Fraction arithmetic
    with the (µ, repr, repr) tie-break. Returns the events as tuples
    (µ, v, w, path, added edges, active moats, phase boundary), the
    radii, the dual bound and the number of merge phases."""
    partition = MoatPartition(instance)
    terminals = partition.terminals
    graph = instance.graph
    dist = graph.all_pairs_distances(terminals)
    rad = {v: Fraction(0) for v in terminals}
    forest = UnionFind(graph.nodes)

    def next_event():
        best = None
        for i, v in enumerate(terminals):
            for w in terminals[i + 1:]:
                rv, rw = partition.rep(v), partition.rep(w)
                if rv == rw:
                    continue
                act_v, act_w = partition.active[rv], partition.active[rw]
                if not act_v and not act_w:
                    continue
                gap = Fraction(dist[v][w]) - rad[v] - rad[w]
                mu = gap / 2 if act_v and act_w else gap
                assert mu >= 0
                a, b = (v, w) if act_v else (w, v)
                key = (mu, repr(a), repr(b), a, b)
                if best is None or key[:3] < best[:3]:
                    best = key
        return None if best is None else (best[0], best[3], best[4])

    def grow(mu):
        for v in terminals:
            if partition.is_active(v):
                rad[v] += mu

    events = []
    cumulative, mu_hat = Fraction(0), Fraction(1)
    while partition.has_active():
        event = next_event()
        active = partition.active_moat_count()
        if epsilon is not None and (
            event is None or cumulative + event[0] >= mu_hat
        ):
            clamped = mu_hat - cumulative
            grow(clamped)
            cumulative = mu_hat
            boundary = partition.recompute_activity()
            events.append((clamped, None, None, [], frozenset(), active, boundary))
            mu_hat *= 1 + _as_fraction(epsilon) / 2
            continue
        mu, v, w = event
        grow(mu)
        cumulative += mu
        path = graph.shortest_path(v, w)
        added = frozenset(
            canonical_edge(a, b)
            for a, b in zip(path, path[1:])
            if forest.union(a, b)
        )
        boundary = partition.merge(v, w, keep_active=epsilon is not None)
        events.append((mu, v, w, path, added, active, boundary))
    dual = sum((e[0] * e[5] for e in events), Fraction(0))
    phases = 1 + sum(1 for e in events[:-1] if e[6]) if events else 0
    return events, rad, dual, phases


_MOAT_NODE_NAMES = {
    "int": lambda i: i,
    "str": lambda i: f"v{i}",
    "mixed": lambda i: i if i % 2 else f"v{i}",
}


@st.composite
def moat_instances(draw):
    """Connected graphs with int, str or mixed nodes, weights either
    tie-heavy (1–3) or up to 2^20, and 1–4 components of 1–3 terminals
    (singletons are satisfied from the start)."""
    n = draw(st.integers(4, 14))
    seed = draw(st.integers(0, 10**6))
    name = _MOAT_NODE_NAMES[draw(st.sampled_from(sorted(_MOAT_NODE_NAMES)))]
    max_weight = draw(st.sampled_from([3, 1 << 20]))
    rng = random.Random(seed)
    g = nx.compose(nx.gnp_random_graph(n, 0.3, seed=seed), nx.path_graph(n))
    graph = WeightedGraph(
        [name(v) for v in g.nodes],
        [(name(u), name(v), rng.randint(1, max_weight)) for u, v in g.edges],
    )
    nodes = list(graph.nodes)
    rng.shuffle(nodes)
    components = []
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.integers(1, 3))
        if len(nodes) < size:
            break
        components.append([nodes.pop() for _ in range(size)])
    return instance_from_components(graph, components)


class TestIntGridMatchesFractionLoop:
    """Algorithms 1 and 2 on the int radius grid give exactly the run of
    the Fraction event loop: every MergeEvent field, the radii (as
    Fractions, in terminal order), the dual bound and the phase count."""

    @given(
        moat_instances(),
        st.sampled_from([None, "1/10", 0.1, Fraction(1, 3), Fraction(1, 2), 1, 2]),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_run(self, inst, epsilon):
        if epsilon is None:
            result = moat_growing(inst)
        else:
            result = rounded_moat_growing(inst, epsilon)
        events, radii, dual, phases = fraction_moat_growing(inst, epsilon)
        assert [
            (e.mu, e.v, e.w, e.path, e.added_edges, e.active_moats,
             e.phase_boundary)
            for e in result.events
        ] == events
        assert all(type(e.mu) is Fraction for e in result.events)
        assert list(result.radii.items()) == list(radii.items())
        assert all(type(r) is Fraction for r in result.radii.values())
        assert result.dual_lower_bound == dual
        assert result.num_merge_phases == phases


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
