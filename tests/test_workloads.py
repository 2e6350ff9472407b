"""Tests for the workload generators."""

import functools
import hashlib
import random
import sys

import networkx as nx
import pytest

from repro.model.graph import WeightedGraph
from repro.simbackend import numpy_tier_available
from repro.workloads import (
    TERMINAL_PLACEMENTS,
    broom_graph,
    caterpillar_graph,
    clustered_geometric_graph,
    ensure_connected,
    generators,
    grid_graph,
    grid_instance,
    place_terminals,
    powerlaw_graph,
    random_connected_graph,
    random_geometric_graph,
    random_instance,
    random_regular_graph,
    ring_of_blobs,
    smallworld_graph,
    terminals_on_graph,
    torus_graph,
)


class TestGraphGenerators:
    def test_random_connected(self):
        g = random_connected_graph(20, 0.2, random.Random(1))
        assert g.num_nodes == 20
        assert g.is_connected()

    def test_deterministic_given_seed(self):
        a = random_connected_graph(15, 0.3, random.Random(7))
        b = random_connected_graph(15, 0.3, random.Random(7))
        assert a.edge_set() == b.edge_set()
        assert a.total_weight() == b.total_weight()

    def test_geometric(self):
        g = random_geometric_graph(15, 0.5, random.Random(2))
        assert g.is_connected()
        assert all(w >= 1 for _, _, w in g.edges())

    def test_ring_of_blobs_s_scales_with_ring(self):
        rng = random.Random(3)
        small = ring_of_blobs(3, 4, rng)
        rng = random.Random(3)
        large = ring_of_blobs(9, 4, rng)
        assert (
            large.shortest_path_diameter() > small.shortest_path_diameter()
        )

    def test_ring_of_blobs_node_count(self):
        g = ring_of_blobs(4, 5, random.Random(0))
        assert g.num_nodes == 20


class TestNewGraphFamilies:
    def test_powerlaw_has_hubs(self):
        g = powerlaw_graph(40, 2, random.Random(1))
        degrees = sorted(g.degree(v) for v in g.nodes)
        # Preferential attachment: the top node dominates the median.
        assert degrees[-1] >= 3 * degrees[len(degrees) // 2]
        assert g.is_connected()

    def test_smallworld_connected_even_when_rewired(self):
        g = smallworld_graph(24, 4, 0.5, random.Random(2))
        assert g.is_connected()
        assert g.num_nodes == 24

    def test_random_regular_degrees(self):
        g = random_regular_graph(16, 3, random.Random(3))
        assert g.is_connected()
        # ensure_connected may add fallback path edges, never remove any.
        assert all(g.degree(v) >= 3 for v in g.nodes) or g.num_edges >= 24

    def test_torus_is_four_regular(self):
        g = torus_graph(4, 5, random.Random(4))
        assert g.num_nodes == 20
        assert all(g.degree(v) == 4 for v in g.nodes)

    def test_caterpillar_is_tree_with_legs(self):
        g = caterpillar_graph(5, 2, random.Random(5))
        assert g.num_nodes == 15
        assert g.num_edges == g.num_nodes - 1  # a tree
        assert g.is_connected()
        # Leaves: every spine node contributed exactly two.
        leaves = [v for v in g.nodes if g.degree(v) == 1]
        assert len(leaves) >= 10

    def test_broom_star_at_handle_end(self):
        g = broom_graph(6, 4, random.Random(6))
        assert g.num_nodes == 10
        assert g.num_edges == 9  # a tree
        assert g.degree(5) == 5  # handle end: 1 path edge + 4 bristles

    def test_clustered_geometric_connected_with_metric_weights(self):
        g = clustered_geometric_graph(20, 3, random.Random(7))
        assert g.is_connected()
        assert all(w >= 1 for _, _, w in g.edges())

    def test_shortest_path_diameter_regimes_differ(self):
        # The catalog spans regimes: trees have linear s, power-law tiny s.
        rng = random.Random(8)
        tree_s = caterpillar_graph(8, 1, rng).shortest_path_diameter()
        rng = random.Random(8)
        hub_s = powerlaw_graph(16, 3, rng).shortest_path_diameter()
        assert tree_s > hub_s


class TestTerminalPlacements:
    def _graph(self, seed=9):
        return random_connected_graph(20, 0.3, random.Random(seed))

    @pytest.mark.parametrize("placement", sorted(TERMINAL_PLACEMENTS))
    def test_disjoint_components_of_requested_shape(self, placement):
        inst = place_terminals(placement, self._graph(), 3, 2, random.Random(1))
        assert inst.num_components == 3
        assert inst.num_terminals == 6  # disjoint: no node reused

    @pytest.mark.parametrize("placement", sorted(TERMINAL_PLACEMENTS))
    def test_deterministic_given_seed(self, placement):
        g = self._graph()
        a = place_terminals(placement, g, 3, 2, random.Random(2))
        b = place_terminals(placement, g, 3, 2, random.Random(2))
        assert a.labels == b.labels

    @pytest.mark.parametrize("placement", sorted(TERMINAL_PLACEMENTS))
    def test_overfull_request_rejected(self, placement):
        g = random_connected_graph(6, 0.5, random.Random(0))
        with pytest.raises(ValueError, match="distinct terminals"):
            place_terminals(placement, g, 4, 2, random.Random(0))

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError, match="unknown terminal placement"):
            place_terminals("teleport", self._graph(), 2, 2, random.Random(0))

    def test_clustered_members_are_near_their_seed(self):
        g = self._graph()
        inst = place_terminals("clustered", g, 2, 2, random.Random(3))
        dist = g.all_pairs_distances()
        diameter = g.weighted_diameter()
        for component in inst.components.values():
            u, v = sorted(component, key=repr)
            assert dist[u][v] <= diameter  # sanity
        # Intra-component distances are no larger than the far-pairs ones.
        far = place_terminals("far_pairs", g, 2, 2, random.Random(3))
        near_max = max(
            dist[min(c, key=repr)][max(c, key=repr)]
            for c in inst.components.values()
        )
        far_max = max(
            dist[min(c, key=repr)][max(c, key=repr)]
            for c in far.components.values()
        )
        assert near_max <= far_max

    def test_far_pairs_anchor_on_weighted_farthest(self):
        g = self._graph()
        dist = g.all_pairs_distances()
        inst = place_terminals("far_pairs", g, 1, 2, random.Random(4))
        (component,) = inst.components.values()
        u, v = sorted(component, key=repr)
        # The pair realizes the maximum distance from one of its endpoints.
        assert dist[u][v] in (max(dist[u].values()), max(dist[v].values()))

    def test_hub_spoke_touches_the_hub_neighborhood(self):
        g = self._graph()
        hub = max(g.nodes, key=lambda v: (g.degree(v), repr(v)))
        inst = place_terminals("hub_spoke", g, 2, 2, random.Random(5))
        terminals = inst.terminals
        assert hub in terminals  # the hub itself seeds the first component


class TestInstanceGenerators:
    def test_terminals_disjoint(self):
        g = random_connected_graph(20, 0.3, random.Random(5))
        inst = terminals_on_graph(g, 4, 3, random.Random(5))
        assert inst.num_components == 4
        assert inst.num_terminals == 12

    def test_too_many_terminals_rejected(self):
        g = random_connected_graph(6, 0.5, random.Random(0))
        with pytest.raises(ValueError):
            terminals_on_graph(g, 4, 2, random.Random(0))

    def test_overfull_pair_request_names_the_numbers(self):
        # Regression: asking for more disjoint terminal pairs than the
        # graph has nodes for must raise immediately with the arithmetic
        # spelled out — never hang hunting for free nodes or silently
        # reuse one across components.
        g = random_connected_graph(7, 0.5, random.Random(1))
        with pytest.raises(ValueError, match="8 distinct terminals"):
            terminals_on_graph(g, 4, 2, random.Random(1))

    @pytest.mark.parametrize(
        "k,component_size,message",
        [
            (0, 2, "at least one input component"),
            (-1, 2, "at least one input component"),
            (2, 0, "at least one terminal"),
            (2, -3, "at least one terminal"),
        ],
    )
    def test_degenerate_requests_rejected_not_silently_shrunk(
        self, k, component_size, message
    ):
        # Regression: k=0 / component_size=0 used to produce an instance
        # with silently missing (empty) components instead of erroring.
        g = random_connected_graph(8, 0.5, random.Random(2))
        with pytest.raises(ValueError, match=message):
            terminals_on_graph(g, k, component_size, random.Random(2))

    def test_exactly_full_graph_allowed(self):
        g = random_connected_graph(8, 0.5, random.Random(3))
        inst = terminals_on_graph(g, 4, 2, random.Random(3))
        assert inst.num_terminals == 8

    def test_random_instance(self):
        inst = random_instance(18, 3, random.Random(4))
        assert inst.num_components == 3
        assert inst.graph.num_nodes == 18

    def test_grid_instance(self):
        inst = grid_instance(4, 4, 2, random.Random(6))
        assert inst.graph.num_nodes == 16
        assert inst.num_components == 2


def _graph_fingerprint(graph):
    """Byte-exact identity of a graph: nodes in order, weighted edges."""
    return repr((graph.nodes, graph.edges()))


def _instance_fingerprint(inst):
    """Byte-exact identity of an instance: graph, labels, components."""
    labels = sorted(inst.labels.items(), key=repr)
    components = sorted(
        (label, sorted(members, key=repr))
        for label, members in inst.components.items()
    )
    return repr((_graph_fingerprint(inst.graph), labels, components))


class TestSeededReproducibility:
    """Same seed ⇒ byte-identical output, for every graph family."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda rng: random_connected_graph(15, 0.3, rng),
            lambda rng: random_connected_graph(10, 0.0, rng),  # fallback
            lambda rng: random_geometric_graph(15, 0.5, rng),
            lambda rng: random_geometric_graph(12, 0.01, rng),  # fallback
            lambda rng: grid_graph(3, 4, rng),
            lambda rng: ring_of_blobs(3, 4, rng),
            lambda rng: powerlaw_graph(16, 2, rng),
            lambda rng: smallworld_graph(16, 4, 0.3, rng),
            lambda rng: random_regular_graph(14, 3, rng),
            lambda rng: torus_graph(3, 5, rng),
            lambda rng: caterpillar_graph(4, 2, rng),
            lambda rng: broom_graph(5, 3, rng),
            lambda rng: clustered_geometric_graph(16, 3, rng),
        ],
        ids=[
            "gnp", "gnp-compose-fallback",
            "geometric", "geometric-compose-fallback",
            "grid", "ring-of-blobs",
            "powerlaw", "smallworld", "regular", "torus",
            "caterpillar", "broom", "cluster-geo",
        ],
    )
    def test_graph_family_reproducible(self, build):
        a = build(random.Random(42))
        b = build(random.Random(42))
        assert _graph_fingerprint(a) == _graph_fingerprint(b)

    def test_connectivity_fallback_path_taken_and_connected(self):
        # p=0 leaves G(n,p) edgeless, forcing the nx.compose path-graph
        # fallback; the result must still be connected and reproducible.
        g = random_connected_graph(10, 0.0, random.Random(9))
        assert g.is_connected()
        assert g.num_edges == 9  # exactly the fallback path

    def test_geometric_fallback_connected(self):
        g = random_geometric_graph(12, 0.01, random.Random(9))
        assert g.is_connected()

    @pytest.mark.parametrize(
        "build",
        [
            lambda rng: random_instance(14, 3, rng),
            lambda rng: random_instance(10, 2, rng, p=0.0),  # fallback
            lambda rng: grid_instance(4, 4, 2, rng),
            lambda rng: terminals_on_graph(
                ring_of_blobs(3, 4, rng), 3, 2, rng
            ),
        ],
        ids=["random", "random-compose-fallback", "grid", "ring"],
    )
    def test_instances_reproducible(self, build):
        a = build(random.Random(1234))
        b = build(random.Random(1234))
        assert _instance_fingerprint(a) == _instance_fingerprint(b)

    def test_different_seeds_differ(self):
        a = random_connected_graph(15, 0.3, random.Random(1))
        b = random_connected_graph(15, 0.3, random.Random(2))
        assert _graph_fingerprint(a) != _graph_fingerprint(b)


#: sha256 of ``repr(random_connected_graph(2048, 0.01, Random(s))
#: .edges())``, weighted edges in order, as networkx's own G(n, p)
#: generator produced them before the bulk draw existed.
GNP_2048_SHA256 = {
    0: "622adec12d1d5a6d3ed80bd3cdfb73f004b02469b98f355e0c47ee70b87266c5",
    1: "9254f487b37b6614763e099b26a3ccb661f9ffafbbd20aebf34f492e662b989f",
}

requires_numpy = pytest.mark.skipif(
    not numpy_tier_available(),
    reason="optional numpy extra not installed",
)


class TestBulkGnp:
    """``_gnp`` lists networkx's G(n, p) edges, whichever path draws it."""

    @pytest.mark.parametrize("seed", sorted(GNP_2048_SHA256))
    def test_gnp_2048_edges_pinned(self, seed):
        graph = random_connected_graph(2048, 0.01, random.Random(seed))
        digest = hashlib.sha256(repr(graph.edges()).encode()).hexdigest()
        assert digest == GNP_2048_SHA256[seed]

    @requires_numpy
    @pytest.mark.parametrize(
        "n,p,seed",
        [
            pytest.param(n, p, seed, id=f"numpy-n{n}-p{p}-seed{seed}")
            # n >= 256 spans several 2^14-coin chunks, the last partial;
            # n = 363 (65703 coins) also spans more than 2^16.
            for n in (0, 1, 2, 3, 48, 256, 363, 1000)
            for p in (0, 1e-9, 0.01, 0.5, 0.999999, 1, 1.5)
            for seed in (0, 1, 2 ** 30 - 1, 2 ** 32 + 7, 2 ** 64 + 3)
        ],
    )
    def test_bulk_draw_equals_networkx(self, n, p, seed, monkeypatch):
        # Draw in bulk at every n, not only above the size cut-over.
        monkeypatch.setattr(generators, "_GNP_BULK_MIN_PAIRS", 1)
        assert generators._gnp(n, p, seed) == list(
            nx.gnp_random_graph(n, p, seed=seed).edges
        )

    @staticmethod
    def _spy(monkeypatch, name):
        calls = []
        original = getattr(generators, name)

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(generators, name, spy)
        return calls

    def test_without_numpy_draws_coins_in_python(self, monkeypatch):
        reference = list(nx.gnp_random_graph(300, 0.3, seed=7).edges)
        bulk = self._spy(monkeypatch, "_gnp_numpy")
        sampled = []
        monkeypatch.setattr(
            generators.nx, "gnp_random_graph",
            lambda *args, **kwargs: sampled.append(args),
        )
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert generators._gnp(300, 0.3, 7) == reference
        assert bulk == [] and sampled == []

    @requires_numpy
    def test_numpy_draws_in_bulk_from_the_cut_over(self, monkeypatch):
        calls = self._spy(monkeypatch, "_gnp_numpy")
        below = max(
            n for n in range(256)
            if n * (n - 1) // 2 < generators._GNP_BULK_MIN_PAIRS
        )
        generators._gnp(below, 0.3, 7)
        assert calls == []
        generators._gnp(below + 1, 0.3, 7)
        assert [args[1:] for args in calls] == [(below + 1, 0.3, 7)]


def _reference_weights(graph, rng, max_weight):
    """One ``rng.randint(1, max_weight)`` per edge of the networkx
    ``graph`` in ``edges`` order, then ``from_networkx``: how the
    generators weighed their graphs before the bulk draw."""
    for u, v in graph.edges:
        graph[u][v]["weight"] = rng.randint(1, max_weight)
    return WeightedGraph.from_networkx(graph)


@functools.lru_cache(maxsize=None)
def _networkx_gnp(n, p, seed):
    """networkx's G(n, p), sampled once per test run (a second at
    n = 4096); callers weigh a copy."""
    return nx.gnp_random_graph(n, p, seed=seed)


def _reference_gnp_build(n, p, rng, max_weight):
    """``random_connected_graph`` as it was built through networkx:
    G(n, p), the compose fallback, then :func:`_reference_weights`."""
    sample = _networkx_gnp(n, p, rng.randrange(1 << 30)).copy()
    return _reference_weights(ensure_connected(sample), rng, max_weight)


def _build_fingerprint(graph, rng):
    """Nodes, edges in order, each node's adjacency in insertion order
    with its weights, and the state the build left ``rng`` in."""
    return (
        graph.nodes,
        graph.edges(),
        [list(graph.adjacency(v).items()) for v in graph.nodes],
        rng.getstate(),
    )


#: max_weight values of the identity tests: widths of 1 to 21 bits, at
#: and just past a power of two, and the default.
IDENTITY_MAX_WEIGHTS = (1, 2, 16, 17, 20, 2 ** 20)

#: (n, p, seed) of the identity tests: one sample below the numpy coin
#: cut-over, one connected sample above it, and three disconnected
#: samples that take the compose-order fallback.
IDENTITY_SAMPLES = (
    (48, 0.1, 0), (256, 0.03, 0),
    (300, 0.004, 0), (2048, 0.002, 0), (4096, 0.002, 0),
)


def _identity_cases(tag, with_numpy):
    for n, p, seed in IDENTITY_SAMPLES:
        # Without numpy, the largest samples cost a second each per
        # build, so they take the default width only: the weights are
        # drawn the same way on both paths.
        widths = (
            IDENTITY_MAX_WEIGHTS if with_numpy or n <= 300 else (20,)
        )
        for max_weight in widths:
            yield pytest.param(
                n, p, seed, max_weight,
                id=f"{tag}-n{n}-p{p}-seed{seed}-w{max_weight}",
            )


def _assert_build_identity(n, p, seed, max_weight):
    rng, reference_rng = random.Random(seed), random.Random(seed)
    graph = random_connected_graph(n, p, rng, max_weight=max_weight)
    reference = _reference_gnp_build(n, p, reference_rng, max_weight)
    assert _build_fingerprint(graph, rng) == _build_fingerprint(
        reference, reference_rng
    )


class TestGnpBuildIdentity:
    """The direct build is the networkx build, down to the rng state."""

    def test_samples_cover_both_connectivity_paths(self):
        spanned = [
            generators._spans(n, generators._gnp(n, p, coin_seed))
            for n, p, seed in IDENTITY_SAMPLES
            for coin_seed in [random.Random(seed).randrange(1 << 30)]
        ]
        assert spanned == [True, True, False, False, False]

    @requires_numpy
    @pytest.mark.parametrize(
        "n,p,seed,max_weight", list(_identity_cases("numpy", True))
    )
    def test_numpy_build_equals_networkx_build(self, n, p, seed, max_weight):
        _assert_build_identity(n, p, seed, max_weight)

    @pytest.mark.parametrize(
        "n,p,seed,max_weight", list(_identity_cases("python", False))
    )
    def test_python_build_equals_networkx_build(
        self, n, p, seed, max_weight, monkeypatch
    ):
        monkeypatch.setitem(sys.modules, "numpy", None)
        _assert_build_identity(n, p, seed, max_weight)

    @pytest.mark.parametrize("count", [0, 1, 5, 128, 1000])
    @pytest.mark.parametrize(
        "max_weight",
        IDENTITY_MAX_WEIGHTS + (2 ** 32 - 1, 2 ** 32, 2 ** 40),
    )
    def test_uniform_weights_are_randint_draws(self, max_weight, count):
        rng, reference = random.Random(count), random.Random(count)
        weights = generators._uniform_weights(rng, count, max_weight)
        assert weights == [
            reference.randint(1, max_weight) for _ in range(count)
        ]
        assert all(type(w) is int for w in weights)
        assert rng.getstate() == reference.getstate()

    @pytest.mark.parametrize(
        "build,reference",
        [
            (
                lambda rng: grid_graph(5, 7, rng),
                lambda rng: _reference_weights(
                    nx.convert_node_labels_to_integers(
                        nx.grid_2d_graph(5, 7)
                    ),
                    rng, 10,
                ),
            ),
            (
                lambda rng: torus_graph(16, 16, rng, max_weight=2 ** 33),
                lambda rng: _reference_weights(
                    nx.convert_node_labels_to_integers(
                        nx.grid_2d_graph(16, 16, periodic=True)
                    ),
                    rng, 2 ** 33,
                ),
            ),
            (
                lambda rng: powerlaw_graph(60, 2, rng),
                lambda rng: _reference_weights(
                    nx.barabasi_albert_graph(
                        60, 2, seed=rng.randrange(1 << 30)
                    ),
                    rng, 20,
                ),
            ),
            (
                lambda rng: smallworld_graph(60, 4, 0.3, rng, max_weight=17),
                lambda rng: _reference_weights(
                    ensure_connected(nx.watts_strogatz_graph(
                        60, 4, 0.3, seed=rng.randrange(1 << 30)
                    )),
                    rng, 17,
                ),
            ),
            (
                lambda rng: random_regular_graph(300, 3, rng, max_weight=1),
                lambda rng: _reference_weights(
                    ensure_connected(nx.random_regular_graph(
                        3, 300, seed=rng.randrange(1 << 30)
                    )),
                    rng, 1,
                ),
            ),
        ],
        ids=["grid", "torus", "powerlaw", "smallworld", "regular"],
    )
    def test_networkx_families_equal_per_edge_randint(self, build, reference):
        rng, reference_rng = random.Random(3), random.Random(3)
        assert _build_fingerprint(build(rng), rng) == _build_fingerprint(
            reference(reference_rng), reference_rng
        )


class TestEnsureConnected:
    def test_connected_graph_untouched(self):
        g = nx.path_graph(4)
        assert ensure_connected(g) is g

    def test_disconnected_graph_gets_path_overlay(self):
        g = nx.empty_graph(6)
        fixed = ensure_connected(g)
        assert nx.is_connected(fixed)
        assert fixed.number_of_edges() == 5  # exactly the fallback path

    def test_overlay_preserves_sampled_edges_and_attributes(self):
        g = nx.Graph()
        g.add_nodes_from(range(5), flavor="sampled")
        g.add_edge(0, 3)
        fixed = ensure_connected(g)
        assert fixed.has_edge(0, 3)
        assert fixed.nodes[0]["flavor"] == "sampled"

    def test_non_integer_labels_rejected_not_silently_disconnected(self):
        g = nx.Graph([("a", "b"), ("c", "d")])
        with pytest.raises(ValueError, match="0..n-1"):
            ensure_connected(g)

    def test_non_contiguous_integer_labels_rejected_no_phantom_nodes(self):
        # Without the label check, path_graph(4) over nodes {0,1,3,4}
        # would inject a phantom node 2 and report "connected".
        g = nx.Graph([(0, 1), (3, 4)])
        with pytest.raises(ValueError, match="0..n-1"):
            ensure_connected(g)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: random_connected_graph(12, 0.0, random.Random(5)),
            lambda: random_geometric_graph(12, 0.01, random.Random(5)),
        ],
        ids=["gnp", "geometric"],
    )
    def test_fallback_path_edges_always_receive_weights(self, build):
        # p=0 / tiny radius force the path-overlay fallback for (nearly)
        # every edge; each must carry an explicit positive integer weight
        # (never the from_networkx missing-weight default applied blindly).
        g = build()
        assert g.is_connected()
        assert g.num_edges >= 11  # the fallback path is present
        for u, v, w in g.edges():
            assert isinstance(w, int) and w >= 1
